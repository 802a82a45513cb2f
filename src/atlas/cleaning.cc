#include "atlas/cleaning.h"

namespace rootstress::atlas {

std::vector<bool> select_vps(const std::vector<VantagePoint>& vps,
                             const RecordSet& records, CleaningStats* stats) {
  // Evidence pass: which VPs produced pattern-mismatch replies at
  // middlebox-like latencies?
  std::vector<bool> hijack_evidence(vps.size(), false);
  for (const auto& record : records) {
    if (record.outcome == ProbeOutcome::kError && record.site_id < 0 &&
        record.rtt_ms < kHijackRttFloorMs && record.vp < vps.size()) {
      hijack_evidence[record.vp] = true;
    }
  }

  CleaningStats local;
  local.total_vps = static_cast<int>(vps.size());
  std::vector<bool> keep(vps.size(), false);
  for (std::size_t i = 0; i < vps.size(); ++i) {
    if (vps[i].firmware < kMinFirmware) {
      ++local.dropped_old_firmware;
      continue;
    }
    if (hijack_evidence[i]) {
      ++local.dropped_hijacked;
      continue;
    }
    keep[i] = true;
    ++local.kept_vps;
  }
  if (stats != nullptr) {
    stats->total_vps = local.total_vps;
    stats->dropped_old_firmware = local.dropped_old_firmware;
    stats->dropped_hijacked = local.dropped_hijacked;
    stats->kept_vps = local.kept_vps;
  }
  return keep;
}

void filter_records(RecordSet& records, const std::vector<bool>& keep_vp,
                    CleaningStats* stats) {
  const std::size_t total = records.size();
  std::erase_if(records, [&keep_vp](const ProbeRecord& record) {
    return record.vp >= keep_vp.size() || !keep_vp[record.vp];
  });
  if (stats != nullptr) {
    stats->total_records = total;
    stats->kept_records = records.size();
  }
}

}  // namespace rootstress::atlas
