/**
 * @file
 * Multi-objective Bayesian optimization with the SMS-EGO acquisition
 * (Section III-B).
 *
 * One GP surrogate per objective is fit on the archive after an initial
 * random design. Each iteration scores a candidate pool by the
 * S-metric (hypervolume) gain of the candidate's lower-confidence-bound
 * objective vector against the current Pareto front; epsilon-dominated
 * candidates receive a negative penalty proportional to how far inside
 * the dominated region they sit [64]. The best-scoring candidate is
 * evaluated for real and the surrogates are refit.
 */

#ifndef AUTOPILOT_DSE_BAYESOPT_H
#define AUTOPILOT_DSE_BAYESOPT_H

#include "dse/gaussian_process.h"
#include "dse/optimizer.h"

namespace autopilot::dse
{

/** SMS-EGO Bayesian optimizer. */
class BayesOpt : public Optimizer
{
  public:
    /** Algorithm-specific settings. */
    struct Settings
    {
        int initialSamples = 16;   ///< Random design before modelling.
        int candidatePool = 256;   ///< Random candidates per iteration.
        double confidenceGain = 1.0; ///< LCB multiplier on sigma.
        double epsilon = 1e-3;     ///< Epsilon-dominance band.
        /// Suggestions evaluated per model refit (q-batch BO). The top-q
        /// acquisition scorers are evaluated as one parallel batch and
        /// committed in score order; 1 reproduces classic sequential
        /// SMS-EGO. Larger q trades a slightly staler surrogate for
        /// batch-parallel simulation throughput.
        int batchSize = 1;
        GpParams gp; ///< Shared kernel parameters.
    };

    /** Construct with default settings. */
    BayesOpt();

    explicit BayesOpt(const Settings &settings);

    std::string name() const override { return "bo"; }

    OptimizerResult optimize(DseEvaluator &evaluator,
                             const OptimizerConfig &config) override;

  private:
    Settings cfg;
};

} // namespace autopilot::dse

#endif // AUTOPILOT_DSE_BAYESOPT_H
