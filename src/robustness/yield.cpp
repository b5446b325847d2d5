#include "robustness/yield.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "core/parallel.hpp"

namespace rmp::robustness {

YieldResult summarize_ensemble(double nominal_value, double epsilon_fraction,
                               std::span<const double> trial_values) {
  YieldResult r;
  r.nominal_value = nominal_value;
  r.absolute_threshold = epsilon_fraction * std::fabs(nominal_value);
  r.total_trials = trial_values.size();
  for (const double v : trial_values) {
    const double dev = std::fabs(r.nominal_value - v);
    r.max_deviation = std::max(r.max_deviation, dev);
    if (dev <= r.absolute_threshold) ++r.robust_trials;
  }
  if (r.total_trials > 0) {
    r.gamma = static_cast<double>(r.robust_trials) / static_cast<double>(r.total_trials);
  }
  return r;
}

std::vector<YieldResult> score_ensembles(std::span<const EnsembleRequest> requests,
                                         const PropertyFn& f, const YieldConfig& cfg) {
  const auto trials_of = [&cfg](const EnsembleRequest& r) {
    return r.variable == kAllVariables ? cfg.perturbation.global_trials
                                       : cfg.perturbation.local_trials_per_variable;
  };
  std::vector<YieldResult> out(requests.size());
  std::vector<num::Vec> trials;
  std::vector<double> values;
  for (std::size_t first = 0; first < requests.size();) {
    // The chunk: whole ensembles laid end to end, each drawn from its own
    // seeded RNG, until the next one would overflow kEnsembleChunkTrials.
    trials.clear();
    std::size_t last = first;
    do {
      const EnsembleRequest& r = requests[last];
      num::Rng rng(r.seed);
      std::vector<num::Vec> ensemble =
          r.variable == kAllVariables ? global_ensemble(r.x, cfg.perturbation, rng)
                                      : local_ensemble(r.x, r.variable, cfg.perturbation, rng);
      std::move(ensemble.begin(), ensemble.end(), std::back_inserter(trials));
      ++last;
    } while (last < requests.size() &&
             trials.size() + trials_of(requests[last]) <= kEnsembleChunkTrials);

    // Score the chunk in parallel (PropertyFn is concurrency-safe by
    // contract), then reduce each request serially in index order for
    // bit-exact results.
    values.assign(trials.size(), 0.0);
    core::parallel_for(trials.size(), cfg.threads,
                       [&](std::size_t i) { values[i] = f(trials[i]); });
    std::size_t offset = 0;
    for (std::size_t k = first; k < last; ++k) {
      const std::size_t n = trials_of(requests[k]);
      out[k] = summarize_ensemble(requests[k].nominal, cfg.epsilon_fraction,
                                  std::span<const double>(values).subspan(offset, n));
      offset += n;
    }
    first = last;
  }
  // Serial epoch barrier after the last chunk, so whatever is scored next
  // warm-starts from these trials' roots.
  if (cfg.epoch_commit) cfg.epoch_commit();
  return out;
}

namespace {

/// f(x), then the epoch barrier that makes its solve the warm-start
/// snapshot every trial of the ensembles measured against it reads.
double committed_nominal(std::span<const double> x, const PropertyFn& f,
                         const YieldConfig& cfg) {
  const double nominal = f(x);
  if (cfg.epoch_commit) cfg.epoch_commit();
  return nominal;
}

}  // namespace

YieldResult global_yield(std::span<const double> x, const PropertyFn& f,
                         const YieldConfig& cfg) {
  const EnsembleRequest request{x, committed_nominal(x, f, cfg), cfg.seed, kAllVariables};
  return score_ensembles({&request, 1}, f, cfg).front();
}

std::vector<YieldResult> local_yields(std::span<const double> x, const PropertyFn& f,
                                      const YieldConfig& cfg) {
  const double nominal = committed_nominal(x, f, cfg);
  std::vector<EnsembleRequest> requests(x.size());
  for (std::size_t var = 0; var < x.size(); ++var) {
    requests[var] = {x, nominal, cfg.seed + var + 1, var};
  }
  return score_ensembles(requests, f, cfg);
}

}  // namespace rmp::robustness
