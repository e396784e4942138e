/**
 * @file
 * Nonlinear least-squares fitting with the Marquardt-Levenberg
 * algorithm, the method the paper cites for the best-fit lines of
 * Figure 2 (hit ratio vs entropy).
 */

#ifndef MEMO_ANALYSIS_LMFIT_HH
#define MEMO_ANALYSIS_LMFIT_HH

#include <functional>
#include <vector>

namespace memo
{

/** Outcome of a Levenberg-Marquardt fit. */
struct FitResult
{
    std::vector<double> params;
    double residualSumSquares = 0.0;
    unsigned iterations = 0;
    bool converged = false;
    bool operator==(const FitResult &) const = default; //!< Field-wise.
};

/**
 * Fit model(x, params) to (xs, ys) by Levenberg-Marquardt with a
 * numerical Jacobian.
 *
 * @param model the model function f(x, p)
 * @param initial starting parameter vector
 * @param xs abscissae
 * @param ys ordinates (same length as xs)
 * @param max_iterations iteration cap
 */
FitResult
levenbergMarquardt(const std::function<double(double,
                                              const std::vector<double> &)>
                       &model,
                   std::vector<double> initial,
                   const std::vector<double> &xs,
                   const std::vector<double> &ys,
                   unsigned max_iterations = 200);

/**
 * Convenience: fit the line y = a + b*x (as drawn in Figure 2).
 * @return FitResult with params = {a, b}
 */
FitResult fitLine(const std::vector<double> &xs,
                  const std::vector<double> &ys);

} // namespace memo

#endif // MEMO_ANALYSIS_LMFIT_HH
