#include "sim/invariants.h"

#include <cmath>
#include <sstream>

#include "core/check.h"

namespace sgm {

InvariantChecker::InvariantChecker(const InvariantOptions& options)
    : options_(options) {
  SGM_CHECK(options.zone_epsilon >= 0.0);
  SGM_CHECK(options.max_out_of_zone_run >= 0);
}

void InvariantChecker::Add(const std::string& invariant, long cycle,
                           std::string details) {
  violations_.push_back(InvariantViolation{invariant, cycle,
                                           std::move(details)});
}

void InvariantChecker::CheckBelief(long cycle, bool believes_above,
                                   bool truth_above,
                                   double truth_surface_distance) {
  const bool disagrees = believes_above != truth_above;
  const bool out_of_zone =
      disagrees && truth_surface_distance > options_.zone_epsilon;
  if (!out_of_zone) {
    out_of_zone_run_ = 0;
    return;
  }
  ++out_of_zone_run_;
  if (out_of_zone_run_ > max_observed_run_) {
    max_observed_run_ = out_of_zone_run_;
  }
  // Flag once, at the cycle the run first exceeds the bound (the run keeps
  // counting so max_observed_run() still reports its full length).
  if (out_of_zone_run_ == options_.max_out_of_zone_run + 1) {
    std::ostringstream details;
    details << "belief " << (believes_above ? "above" : "below")
            << " vs truth " << (truth_above ? "above" : "below")
            << " for " << out_of_zone_run_
            << " consecutive cycles with truth " << truth_surface_distance
            << " from the surface (zone " << options_.zone_epsilon
            << ", max run " << options_.max_out_of_zone_run << ")";
    Add("out-of-zone-run", cycle, details.str());
  }
}

void InvariantChecker::CheckPostSyncExact(long cycle, bool believes_above,
                                          bool truth_above) {
  if (believes_above == truth_above) return;
  std::ostringstream details;
  details << "full synchronization completed but belief "
          << (believes_above ? "above" : "below") << " contradicts truth "
          << (truth_above ? "above" : "below");
  Add("post-sync-belief", cycle, details.str());
}

void InvariantChecker::CheckAccounting(long cycle, long site_messages,
                                       long coordinator_messages,
                                       long total_messages,
                                       double total_bytes) {
  if (site_messages < 0 || coordinator_messages < 0 || total_bytes < 0.0) {
    Add("accounting-negative", cycle, "negative message/byte counter");
  }
  if (site_messages + coordinator_messages != total_messages) {
    std::ostringstream details;
    details << "total " << total_messages << " != site " << site_messages
            << " + coordinator " << coordinator_messages;
    Add("accounting-decomposition", cycle, details.str());
  }
  if (total_bytes + 1e-9 < 16.0 * static_cast<double>(total_messages)) {
    std::ostringstream details;
    details << total_bytes << " bytes cannot cover " << total_messages
            << " 16-byte headers";
    Add("accounting-bytes-floor", cycle, details.str());
  }
  if (has_previous_accounting_ &&
      (total_messages < prev_total_messages_ ||
       total_bytes + 1e-9 < prev_total_bytes_)) {
    Add("accounting-monotonicity", cycle,
        "cumulative counters decreased between cycles");
  }
  has_previous_accounting_ = true;
  prev_total_messages_ = total_messages;
  prev_total_bytes_ = total_bytes;
}

void InvariantChecker::CheckTransportParity(
    long cycle, const std::string& label, long messages_a, long messages_b,
    long site_messages_a, long site_messages_b, double bytes_a,
    double bytes_b) {
  if (messages_a == messages_b && site_messages_a == site_messages_b &&
      std::abs(bytes_a - bytes_b) < 1e-9) {
    return;
  }
  std::ostringstream details;
  details << label << ": messages " << messages_a << " vs " << messages_b
          << ", site messages " << site_messages_a << " vs "
          << site_messages_b << ", bytes " << bytes_a << " vs " << bytes_b;
  Add("transport-parity", cycle, details.str());
}

void InvariantChecker::CheckEpochFencing(long cycle,
                                         long stale_epoch_applied) {
  if (stale_epoch_applied == 0) return;
  std::ostringstream details;
  details << stale_epoch_applied
          << " stale-epoch message(s) reached an apply path; the epoch "
             "fence must drop them before application";
  Add("stale-epoch-applied", cycle, details.str());
}

void InvariantChecker::CheckRejoinConvergence(long cycle, int site,
                                              long recovered_cycle,
                                              bool converged) {
  if (converged) return;
  std::ostringstream details;
  details << "site " << site << " recovered at cycle " << recovered_cycle
          << " but still lacks a current anchor";
  Add("rejoin-convergence", cycle, details.str());
}

void InvariantChecker::CheckRecoveryEpoch(long cycle,
                                          std::int64_t crash_epoch,
                                          std::int64_t recovered_epoch) {
  if (recovered_epoch == crash_epoch + 1) return;
  std::ostringstream details;
  details << "recovered epoch " << recovered_epoch << " != crash epoch "
          << crash_epoch << " + 1 ("
          << (recovered_epoch <= crash_epoch
                  ? "epoch regressed: stale in-flight frames could apply"
                  : "committed epoch bumps were lost by the WAL")
          << ")";
  Add("recovery-epoch-fence", cycle, details.str());
}

void InvariantChecker::CheckRecoveryState(long cycle, bool matches,
                                          const std::string& details) {
  if (matches) return;
  Add("recovery-state-mismatch", cycle, details);
}

void InvariantChecker::CheckDriverEquivalence(long cycle, bool agree,
                                              const std::string& details) {
  if (agree) return;
  Add("driver-equivalence", cycle, details);
}

void InvariantChecker::CheckRecoveryReconvergence(long cycle,
                                                  long recovered_cycle,
                                                  bool converged) {
  if (converged) return;
  std::ostringstream details;
  details << "coordinator recovered at cycle " << recovered_cycle
          << " but no full sync completed by the reconvergence deadline";
  Add("recovery-reconvergence", cycle, details.str());
}

std::string InvariantChecker::Summary() const {
  std::ostringstream out;
  for (const InvariantViolation& v : violations_) {
    out << "[" << v.invariant << "] cycle " << v.cycle << ": " << v.details
        << "\n";
  }
  return out.str();
}

}  // namespace sgm
