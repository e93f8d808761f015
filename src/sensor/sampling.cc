#include "sensor/sampling.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sensor/gauss_kernel.hh"
#include "util/logging.hh"

namespace lhr
{

double
sampleSessionWatts(const PowerChannel &channel,
                   const Calibration &calibration,
                   const double *phase_power_w, int phases,
                   double invocation_power_scale, int samples,
                   Rng &inv_rng)
{
    static const GaussKernelFn kernel = resolveGaussKernel();
    static const SampleQuantizeFn quantize = resolveSampleQuantize();

    if (samples <= 0 || phases <= 0)
        panic("sampleSessionWatts: empty session");

    // Per-thread scratch, grown to the largest session seen and never
    // shrunk. Every element a session reads it first writes, so an
    // earlier, larger session's leftovers never reach the sum.
    thread_local std::vector<double> G1, G2, u1, u2, gc, gs, W;
    thread_local std::vector<int32_t> counts, uncertain;
    const size_t n = static_cast<size_t>(samples);
    if (W.size() < n) {
        for (std::vector<double> *buf : {&G1, &G2, &u1, &u2, &gc, &gs, &W})
            buf->resize(n);
        counts.resize(n);
        uncertain.resize(n);
    }

    // ---- Gaussian stream ------------------------------------------
    // The scalar loop draws 2 gaussians per sample: supply ripple
    // (G1), then sensor noise (G2), so stream slot i belongs to
    // (i odd ? G2 : G1)[i / 2]. A Java preamble can leave the second
    // half of a Box-Muller pair cached in inv_rng; it is already
    // exact and becomes G1[0], which shifts every following pair by
    // one slot. Rng caches at most one half, so drained is 0 or 1.
    const bool drained = inv_rng.hasPendingGaussian();
    if (drained)
        G1[0] = inv_rng.gaussian();

    // Uniforms come from the real generator in the exact scalar
    // order (u1 positive-rejected, then u2), so the raw stream is
    // untouched; only log/sin/cos go through the batch kernel. A
    // session takes `samples` fresh pairs either way.
    for (size_t j = 0; j < n; ++j) {
        u1[j] = inv_rng.uniformPositive();
        u2[j] = inv_rng.uniform();
    }
    kernel(u1.data(), u2.data(), gc.data(), gs.data(), n);
    if (drained) {
        // Pair j fills slots 2j+1 (G2[j]) and 2j+2 (G1[j+1]); the
        // last pair's second half falls off the session: discarded.
        for (size_t j = 0; j < n; ++j)
            G2[j] = gc[j];
        for (size_t j = 0; j + 1 < n; ++j)
            G1[j + 1] = gs[j];
    } else {
        for (size_t j = 0; j < n; ++j) {
            G1[j] = gc[j];
            G2[j] = gs[j];
        }
    }

    // Exact value of gaussian slot i, for fallback lanes.
    auto exactG = [&](size_t i) {
        if (drained && i == 0)
            return G1[0]; // the drained half was computed by libm
        const size_t rel = i - (drained ? 1 : 0);
        const size_t j = rel >> 1;
        const double r = std::sqrt(-2.0 * std::log(u1[j]));
        const double theta = 2.0 * M_PI * u2[j];
        return (rel & 1) ? r * std::sin(theta) : r * std::cos(theta);
    };

    // ---- Certainty window -----------------------------------------
    // |d(ADC value)/d(gaussian)| is bounded per session; the window
    // keeps a 1000x margin over the kernel's error bound through
    // that sensitivity, so an accepted integer count provably equals
    // the exact-libm one.
    SampleQuantizeParams p;
    p.sens = sensorSensitivity(channel.variant());
    p.gainFactor = 1.0 + channel.deviceGainError();
    p.offsetVolts = channel.deviceOffsetVolts();
    p.noiseVolts = channel.sampleNoiseVolts();
    p.ratedAmps = channel.ratedAmps();
    const double countsPerVolt =
        (PowerChannel::adcCounts - 1) / PowerChannel::adcVref;

    double maxAbsW = 0.0;
    for (int k = 0; k < phases; ++k)
        maxAbsW = std::max(
            maxAbsW,
            std::fabs(phase_power_w[k] * invocation_power_scale));
    const double rippleSlope = countsPerVolt * p.sens *
        std::fabs(p.gainFactor) * maxAbsW * 0.003 /
        PowerChannel::railVolts;
    const double noiseSlope = countsPerVolt * p.noiseVolts;
    p.window = std::max(
        1e-6,
        1e3 * (rippleSlope + noiseSlope) * gaussKernelMaxError);
    // Same margin for the negative-power panic decision: a sample
    // this close to 0W goes through the exact path, which reproduces
    // sampleCounts' own check.
    p.zeroWattsGuard = std::max(
        1e-9, 1e3 * maxAbsW * 0.003 * gaussKernelMaxError);

    // ---- Quantize the whole session in batch ----------------------
    // W[s] = phase power x invocation scale, the sample's pre-ripple
    // watts; k = (s * phases) / samples tracked incrementally.
    {
        int k = 0, rem = 0;
        for (int s = 0; s < samples; ++s) {
            W[s] = phase_power_w[k] * invocation_power_scale;
            rem += phases;
            while (rem >= samples) {
                rem -= samples;
                ++k;
            }
        }
    }

    const size_t flagged =
        quantize(W.data(), G1.data(), G2.data(), samples, p,
                 counts.data(), uncertain.data());

    // Boundary-straddling (or near-zero power) lanes: redo with
    // exact libm gaussians and the quantizer's own rounding,
    // channel.sampleCounts op for op.
    for (size_t u = 0; u < flagged; ++u) {
        const int s = uncertain[u];
        const double g1e = exactG(2 * static_cast<size_t>(s));
        const double g2e = exactG(2 * static_cast<size_t>(s) + 1);
        const double trueWe = W[s] * (1.0 + 0.003 * g1e);
        if (trueWe < 0.0)
            panic("PowerChannel::sampleCounts: negative power");
        const double ampsE = trueWe / PowerChannel::railVolts;
        double effectiveE = ampsE;
        if (ampsE > p.ratedAmps) {
            effectiveE = p.ratedAmps +
                (ampsE - p.ratedAmps) * PowerChannel::overRangeGain;
        } else if (ampsE < -p.ratedAmps) {
            effectiveE = -p.ratedAmps +
                (ampsE + p.ratedAmps) * PowerChannel::overRangeGain;
        }
        const double voltsE = PowerChannel::zeroCurrentVolts +
            p.sens * effectiveE * p.gainFactor + p.offsetVolts +
            (0.0 + p.noiseVolts * g2e);
        const double clampedE =
            std::clamp(voltsE, 0.0, PowerChannel::adcVref);
        const int c = static_cast<int>(
            std::lround(clampedE / PowerChannel::adcVref *
                        (PowerChannel::adcCounts - 1)));
        counts[s] = std::clamp(c, 0, PowerChannel::adcCounts - 1);
    }

    // ---- Integrate ------------------------------------------------
    // calibration.wattsFromCounts(counts) inlined through the fit;
    // the sum stays sequential in sample order — reassociating it
    // would change the bits.
    const LinearFit &fit = calibration.fit();
    double wattsSum = 0.0;
    for (int s = 0; s < samples; ++s)
        wattsSum += fit.at(counts[s]) * PowerChannel::railVolts;
    return wattsSum;
}

} // namespace lhr
