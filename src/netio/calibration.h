// Wire-vs-fluid calibration: what the simulator predicts a wire run
// should measure.
//
// The whole point of the netio backend is a ground-truth loop: the same
// offered load the fluid engine models analytically (site queue loss via
// anycast::evaluate_queue, RRL suppression via dns::expected_suppression)
// is pushed through real sockets at a WireServer with the same modeled
// capacity, and the measured answered fraction must agree with the
// analytic prediction. `bench_gates netio` runs the closed loop and gates
// on the agreement; these helpers are the prediction side.
#pragma once

#include "anycast/queue_model.h"

namespace rootstress::netio {

/// The fluid-model prediction for a wire scenario.
struct WirePrediction {
  double answered_fraction = 1.0;  ///< full answers / queries offered
  double served_qps = 0.0;         ///< goodput after queue loss
  double utilization = 0.0;        ///< offered / capacity
  double queue_loss = 0.0;         ///< admission-drop probability
  double rrl_suppression = 0.0;    ///< of queries surviving the queue
};

/// Predicts the outcome of offering `offered_qps` to a server with the
/// given queue capacity (<= 0 capacity_qps = unlimited, no queue loss).
/// When `rrl_enabled`, `duplicate_fraction` of the surviving stream is
/// modeled as RRL-suppressed (the paper's ~60% §2.3 figure by default).
WirePrediction predict_wire_outcome(double offered_qps,
                                    const anycast::QueueConfig& queue,
                                    bool rrl_enabled = false,
                                    double duplicate_fraction = 0.60) noexcept;

/// Relative disagreement |measured - predicted| / max(predicted, eps);
/// the bench gates this at 10%.
double calibration_error(double measured, double predicted) noexcept;

}  // namespace rootstress::netio
