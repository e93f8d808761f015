/**
 * @file
 * Bootstrap confidence intervals.
 *
 * The paper's Table 2 uses Student-t intervals, which assume
 * normality — shaky at SPEC's prescribed three runs. The percentile
 * bootstrap makes no distributional assumption; the methodology
 * ablation (lhrlab run ablation_bootstrap) compares the two at the
 * paper's repetition counts.
 */

#ifndef LHR_STATS_BOOTSTRAP_HH
#define LHR_STATS_BOOTSTRAP_HH

#include <vector>

#include "util/rng.hh"

namespace lhr
{

/** A two-sided confidence interval on a mean. */
struct BootstrapCi
{
    double mean;
    double lo;
    double hi;

    /** Half-width relative to the mean (comparable to ci95Relative). */
    double halfWidthRelative() const;
};

/**
 * Percentile-bootstrap 95% CI of the mean: resample with
 * replacement, take the 2.5th/97.5th percentiles of the resampled
 * means. Requires at least two samples.
 *
 * @param samples the observations
 * @param rng randomness for resampling
 * @param resamples bootstrap iterations
 */
BootstrapCi bootstrapCi95(const std::vector<double> &samples, Rng &rng,
                          int resamples = 2000);

} // namespace lhr

#endif // LHR_STATS_BOOTSTRAP_HH
