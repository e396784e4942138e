#include "chunk_codec.hh"

#include <algorithm>
#include <cstring>

namespace memo
{

namespace
{

// --- little-endian scalar helpers -----------------------------------------

void
putU16(std::string &out, uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; i++)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Bounds-checked little-endian reads over a byte view. */
class ByteReader
{
  public:
    ByteReader(std::string_view bytes, const char *what)
        : bytes_(bytes), what_(what)
    {
    }

    size_t pos() const { return pos_; }
    size_t remaining() const { return bytes_.size() - pos_; }

    const char *
    take(size_t n)
    {
        if (remaining() < n)
            throw SpillError(std::string(what_) +
                             ": truncated (need " + std::to_string(n) +
                             " bytes at offset " + std::to_string(pos_) +
                             ", have " + std::to_string(remaining()) +
                             ")");
        const char *p = bytes_.data() + pos_;
        pos_ += n;
        return p;
    }

    uint8_t
    u8()
    {
        return static_cast<uint8_t>(*take(1));
    }

    uint16_t
    u16()
    {
        const char *p = take(2);
        return static_cast<uint16_t>(
            static_cast<uint8_t>(p[0]) |
            (static_cast<uint16_t>(static_cast<uint8_t>(p[1])) << 8));
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        const char *p = take(4);
        for (int i = 0; i < 4; i++)
            v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i]))
                 << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        const char *p = take(8);
        for (int i = 0; i < 8; i++)
            v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i]))
                 << (8 * i);
        return v;
    }

  private:
    std::string_view bytes_;
    const char *what_;
    size_t pos_ = 0;
};

// --- varint / zigzag ------------------------------------------------------

void
putVarint(std::string &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/** Reads one LEB128 varint from [p, end); throws on overrun/overlong. */
uint64_t
getVarint(const char *&p, const char *end)
{
    uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (p == end)
            throw SpillError("chunk payload: truncated varint");
        uint8_t byte = static_cast<uint8_t>(*p++);
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
    }
    throw SpillError("chunk payload: varint exceeds 64 bits");
}

uint64_t
zigzag(uint64_t delta)
{
    return (delta << 1) ^
           static_cast<uint64_t>(static_cast<int64_t>(delta) >> 63);
}

uint64_t
unzigzag(uint64_t zz)
{
    return (zz >> 1) ^ (~(zz & 1) + 1);
}

} // anonymous namespace

const char *
traceColumnName(TraceColumn col)
{
    switch (col) {
      case TraceColumn::Cls:
        return "cls";
      case TraceColumn::Pc:
        return "pc";
      case TraceColumn::OpCls:
        return "opCls";
      case TraceColumn::OpA:
        return "opA";
      case TraceColumn::OpB:
        return "opB";
      case TraceColumn::OpRes:
        return "opRes";
      case TraceColumn::Addr:
        return "addr";
    }
    return "?";
}

unsigned
traceColumnWidth(TraceColumn col)
{
    switch (col) {
      case TraceColumn::Cls:
      case TraceColumn::OpCls:
        return 1;
      case TraceColumn::Pc:
        return 4;
      default:
        return 8;
    }
}

EncodedChunk
encodeChunk(const uint64_t *v, uint32_t n)
{
    std::string payload;
    payload.reserve(size_t{n} * 2); // deltas of low-entropy columns are tiny
    uint64_t prev = 0;
    for (uint32_t i = 0; i < n; i++) {
        putVarint(payload, zigzag(v[i] - prev));
        prev = v[i];
    }

    EncodedChunk c;
    c.elems = n;
    c.hash = fnv1a(payload.data(), payload.size());
    c.bytes.reserve(kChunkHeaderBytes + payload.size());
    c.bytes.append(kChunkMagic, sizeof(kChunkMagic));
    putU16(c.bytes, kSpillFormatVersion);
    c.bytes.push_back(static_cast<char>(kEncodingDeltaVarint));
    c.bytes.push_back(0); // reserved
    putU32(c.bytes, n);
    putU32(c.bytes, static_cast<uint32_t>(payload.size()));
    putU64(c.bytes, c.hash);
    c.bytes.append(payload);
    return c;
}

std::vector<uint64_t>
decodeChunk(std::string_view chunk)
{
    ByteReader r(chunk, "chunk header");
    const char *magic = r.take(sizeof(kChunkMagic));
    if (std::memcmp(magic, kChunkMagic, sizeof(kChunkMagic)) != 0)
        throw SpillError("chunk header: bad magic");
    uint16_t version = r.u16();
    if (version != kSpillFormatVersion)
        throw SpillError("chunk header: unsupported version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kSpillFormatVersion) + ")");
    uint8_t encoding = r.u8();
    if (encoding != kEncodingDeltaVarint)
        throw SpillError("chunk header: unknown encoding id " +
                         std::to_string(encoding));
    if (r.u8() != 0)
        throw SpillError("chunk header: nonzero reserved byte");
    uint32_t elems = r.u32();
    uint32_t payloadBytes = r.u32();
    uint64_t hash = r.u64();

    if (chunk.size() - kChunkHeaderBytes != payloadBytes)
        throw SpillError(
            "chunk: payload size mismatch (header says " +
            std::to_string(payloadBytes) + ", file has " +
            std::to_string(chunk.size() - kChunkHeaderBytes) + ")");
    // The hash covers the payload only: bound the header's element
    // count by what the payload can hold (a varint is at least one
    // byte) before allocating for it.
    if (elems > payloadBytes)
        throw SpillError("chunk: element count " + std::to_string(elems) +
                         " exceeds the " + std::to_string(payloadBytes) +
                         "-byte payload");
    const char *p = chunk.data() + kChunkHeaderBytes;
    const char *end = p + payloadBytes;
    if (fnv1a(p, payloadBytes) != hash)
        throw SpillError("chunk: content hash mismatch");

    std::vector<uint64_t> out;
    out.reserve(elems);
    uint64_t prev = 0;
    while (p != end) {
        prev += unzigzag(getVarint(p, end));
        out.push_back(prev);
    }
    if (out.size() != elems)
        throw SpillError("chunk: element count mismatch (header says " +
                         std::to_string(elems) + ", payload holds " +
                         std::to_string(out.size()) + ")");
    return out;
}

namespace
{

/** Chunk a column, widening narrow elements to u64 for the codec. */
template <typename T>
EncodedColumn
encodeColumn(const T *data, size_t n, uint32_t chunk_elems)
{
    EncodedColumn col;
    col.elems = n;
    std::vector<uint64_t> scratch;
    for (size_t base = 0; base < n; base += chunk_elems) {
        uint32_t len = static_cast<uint32_t>(
            std::min<size_t>(chunk_elems, n - base));
        scratch.assign(data + base, data + base + len);
        col.chunks.push_back(encodeChunk(scratch.data(), len));
    }
    return col;
}

/**
 * Decoded view of one column that pulls chunks on demand and
 * narrow-checks every element against the column's declared width.
 */
class ColumnCursor
{
  public:
    ColumnCursor(const EncodedColumn &col, TraceColumn which)
        : col_(col), which_(which)
    {
        // Bound every declared count by the bytes behind it, so the
        // trace-level reserve below never trusts an unbacked count.
        uint64_t total = 0;
        for (const EncodedChunk &c : col.chunks) {
            if (c.bytes.size() < kChunkHeaderBytes ||
                c.elems > c.bytes.size() - kChunkHeaderBytes)
                throw SpillError(std::string(traceColumnName(which)) +
                                 ": chunk declares " +
                                 std::to_string(c.elems) +
                                 " elements, more than its payload "
                                 "can hold");
            total += c.elems;
        }
        if (total != col.elems)
            throw SpillError(std::string(traceColumnName(which)) +
                             ": chunk element counts sum to " +
                             std::to_string(total) + ", column declares " +
                             std::to_string(col.elems));
    }

    uint64_t
    next()
    {
        while (pos_ >= buf_.size()) {
            if (chunk_ >= col_.chunks.size())
                throw SpillError(std::string(traceColumnName(which_)) +
                                 ": column exhausted early");
            buf_ = decodeChunk(col_.chunks[chunk_++].bytes);
            pos_ = 0;
        }
        uint64_t v = buf_[pos_++];
        unsigned w = traceColumnWidth(which_);
        if (w < 8 && v >> (8 * w))
            throw SpillError(std::string(traceColumnName(which_)) +
                             ": element exceeds column width");
        return v;
    }

    bool
    exhausted()
    {
        return pos_ >= buf_.size() && chunk_ >= col_.chunks.size();
    }

  private:
    const EncodedColumn &col_;
    TraceColumn which_;
    std::vector<uint64_t> buf_;
    size_t pos_ = 0;
    size_t chunk_ = 0;
};

} // anonymous namespace

EncodedTrace
encodeTraceChunked(const Trace &trace, uint32_t chunk_elems)
{
    if (chunk_elems == 0)
        throw SpillError("encodeTraceChunked: chunk_elems must be > 0");
    const TraceStore &s = trace.store();
    EncodedTrace enc;
    enc.records = s.size();
    enc.ops = s.opCount();
    enc.addrs = s.addrCount();
    enc.col(TraceColumn::Cls) =
        encodeColumn(s.clsData(), s.size(), chunk_elems);
    enc.col(TraceColumn::Pc) =
        encodeColumn(s.pcData(), s.size(), chunk_elems);
    enc.col(TraceColumn::OpCls) =
        encodeColumn(s.opClasses(), s.opCount(), chunk_elems);
    enc.col(TraceColumn::OpA) =
        encodeColumn(s.opA(), s.opCount(), chunk_elems);
    enc.col(TraceColumn::OpB) =
        encodeColumn(s.opB(), s.opCount(), chunk_elems);
    enc.col(TraceColumn::OpRes) =
        encodeColumn(s.opResults(), s.opCount(), chunk_elems);
    enc.col(TraceColumn::Addr) =
        encodeColumn(s.addrData(), s.addrCount(), chunk_elems);
    return enc;
}

Trace
decodeTraceChunked(const EncodedTrace &enc)
{
    auto expectElems = [&](TraceColumn c, uint64_t want) {
        if (enc.col(c).elems != want)
            throw SpillError(std::string(traceColumnName(c)) +
                             ": column has " +
                             std::to_string(enc.col(c).elems) +
                             " elements, trace counts imply " +
                             std::to_string(want));
    };
    expectElems(TraceColumn::Cls, enc.records);
    expectElems(TraceColumn::Pc, enc.records);
    expectElems(TraceColumn::OpCls, enc.ops);
    expectElems(TraceColumn::OpA, enc.ops);
    expectElems(TraceColumn::OpB, enc.ops);
    expectElems(TraceColumn::OpRes, enc.ops);
    expectElems(TraceColumn::Addr, enc.addrs);

    ColumnCursor cls(enc.col(TraceColumn::Cls), TraceColumn::Cls);
    ColumnCursor pc(enc.col(TraceColumn::Pc), TraceColumn::Pc);
    ColumnCursor opCls(enc.col(TraceColumn::OpCls), TraceColumn::OpCls);
    ColumnCursor opA(enc.col(TraceColumn::OpA), TraceColumn::OpA);
    ColumnCursor opB(enc.col(TraceColumn::OpB), TraceColumn::OpB);
    ColumnCursor opRes(enc.col(TraceColumn::OpRes), TraceColumn::OpRes);
    ColumnCursor addr(enc.col(TraceColumn::Addr), TraceColumn::Addr);

    Trace out;
    out.reserve(enc.records);
    uint64_t ops = 0, addrs = 0;
    for (uint64_t i = 0; i < enc.records; i++) {
        Instruction inst;
        uint64_t c = cls.next();
        if (c >= numInstClasses)
            throw SpillError("cls: value " + std::to_string(c) +
                             " is not an InstClass");
        inst.cls = static_cast<InstClass>(c);
        inst.pc = static_cast<uint32_t>(pc.next());
        if (TraceStore::hasOperands(inst.cls)) {
            if (opCls.next() != c)
                throw SpillError("opCls: disagrees with cls column at "
                                 "operand record " +
                                 std::to_string(ops));
            inst.a = opA.next();
            inst.b = opB.next();
            inst.result = opRes.next();
            ops++;
        } else if (TraceStore::hasAddress(inst.cls)) {
            inst.addr = addr.next();
            addrs++;
        }
        out.push(inst);
    }
    if (ops != enc.ops)
        throw SpillError("trace: class column implies " +
                         std::to_string(ops) +
                         " operand records, manifest declares " +
                         std::to_string(enc.ops));
    if (addrs != enc.addrs)
        throw SpillError("trace: class column implies " +
                         std::to_string(addrs) +
                         " address records, manifest declares " +
                         std::to_string(enc.addrs));
    return out;
}

TraceManifest
manifestOf(const std::string &key, const EncodedTrace &enc)
{
    TraceManifest m;
    m.key = key;
    m.records = enc.records;
    m.ops = enc.ops;
    m.addrs = enc.addrs;
    for (size_t c = 0; c < kNumTraceColumns; c++)
        for (const EncodedChunk &ch : enc.cols[c].chunks)
            m.cols[c].push_back({ch.hash, ch.elems});
    return m;
}

std::string
encodeManifest(const TraceManifest &m)
{
    std::string out;
    out.append(kManifestMagic, sizeof(kManifestMagic));
    putU16(out, kSpillFormatVersion);
    putU16(out, 0); // reserved
    putU64(out, m.records);
    putU64(out, m.ops);
    putU64(out, m.addrs);
    putU32(out, static_cast<uint32_t>(m.key.size()));
    out.append(m.key);
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        putU32(out, static_cast<uint32_t>(m.cols[c].size()));
        for (const ChunkRef &ch : m.cols[c]) {
            putU64(out, ch.hash);
            putU32(out, ch.elems);
        }
    }
    putU64(out, fnv1a(out.data(), out.size()));
    return out;
}

TraceManifest
decodeManifest(std::string_view bytes)
{
    if (bytes.size() < sizeof(uint64_t))
        throw SpillError("manifest: truncated");
    size_t hashed = bytes.size() - sizeof(uint64_t);
    ByteReader tail(bytes.substr(hashed), "manifest trailer");
    if (fnv1a(bytes.data(), hashed) != tail.u64())
        throw SpillError("manifest: trailing hash mismatch");

    ByteReader r(bytes.substr(0, hashed), "manifest");
    const char *magic = r.take(sizeof(kManifestMagic));
    if (std::memcmp(magic, kManifestMagic, sizeof(kManifestMagic)) != 0)
        throw SpillError("manifest: bad magic");
    uint16_t version = r.u16();
    if (version != kSpillFormatVersion)
        throw SpillError("manifest: unsupported version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kSpillFormatVersion) + ")");
    if (r.u16() != 0)
        throw SpillError("manifest: nonzero reserved field");

    TraceManifest m;
    m.records = r.u64();
    m.ops = r.u64();
    m.addrs = r.u64();
    uint32_t keyLen = r.u32();
    m.key.assign(r.take(keyLen), keyLen);
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        uint32_t chunks = r.u32();
        if (chunks > r.remaining() / (sizeof(uint64_t) + sizeof(uint32_t)))
            throw SpillError("manifest: " + std::to_string(chunks) +
                             " chunk references exceed the remaining " +
                             std::to_string(r.remaining()) + " bytes");
        m.cols[c].reserve(chunks);
        for (uint32_t i = 0; i < chunks; i++) {
            ChunkRef ch;
            ch.hash = r.u64();
            ch.elems = r.u32();
            m.cols[c].push_back(ch);
        }
    }
    if (r.remaining() != 0)
        throw SpillError("manifest: " + std::to_string(r.remaining()) +
                         " trailing bytes");
    return m;
}

} // namespace memo
