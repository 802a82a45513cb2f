// Raw probe measurement records.
//
// One record per (VP, letter, probe). Packed to 16 bytes: full-scale runs
// produce tens of millions of records.
#pragma once

#include <cstdint>
#include <vector>

#include "net/clock.h"

namespace rootstress::atlas {

/// What a probe observed.
enum class ProbeOutcome : std::uint8_t {
  kSite = 0,     ///< got a reply mapping to a known site
  kError = 1,    ///< got a reply with an error RCODE / unparseable id
  kTimeout = 2,  ///< no reply within the Atlas timeout
};

/// One measurement. `site_id` is the deployment-global site id (-1 when
/// not applicable); `server` the 1-based answering server (0 unknown);
/// `rtt_ms` is meaningful only for kSite/kError.
struct ProbeRecord {
  std::uint32_t vp = 0;
  std::uint32_t t_s = 0;      ///< seconds since scenario epoch
  std::int16_t site_id = -1;
  std::uint16_t rtt_ms = 0;   ///< saturating at 65535
  std::uint8_t letter_index = 0;
  ProbeOutcome outcome = ProbeOutcome::kTimeout;
  std::uint8_t server = 0;
  std::uint8_t rcode = 0;

  net::SimTime time() const noexcept {
    return net::SimTime(static_cast<std::int64_t>(t_s) * 1000);
  }
};
static_assert(sizeof(ProbeRecord) == 16);

/// The record store for one run.
using RecordSet = std::vector<ProbeRecord>;

/// Struct-of-arrays staging block for the hot probe loops: each field
/// lives in its own contiguous lane while a shard emits records, and the
/// block packs back into AoS ProbeRecords — in push order — when the
/// shard's output merges into the run's RecordSet. Keeping the merge in
/// step, then (service, VP, time) shard order means the packed stream is
/// byte-identical to the serial AoS path at any thread count.
class RecordSoA {
 public:
  std::size_t size() const noexcept { return vp_.size(); }
  bool empty() const noexcept { return vp_.empty(); }

  void clear() noexcept {
    vp_.clear();
    t_s_.clear();
    site_id_.clear();
    rtt_ms_.clear();
    letter_index_.clear();
    outcome_.clear();
    server_.clear();
    rcode_.clear();
  }

  void reserve(std::size_t n) {
    vp_.reserve(n);
    t_s_.reserve(n);
    site_id_.reserve(n);
    rtt_ms_.reserve(n);
    letter_index_.reserve(n);
    outcome_.reserve(n);
    server_.reserve(n);
    rcode_.reserve(n);
  }

  void push(const ProbeRecord& rec) {
    vp_.push_back(rec.vp);
    t_s_.push_back(rec.t_s);
    site_id_.push_back(rec.site_id);
    rtt_ms_.push_back(rec.rtt_ms);
    letter_index_.push_back(rec.letter_index);
    outcome_.push_back(rec.outcome);
    server_.push_back(rec.server);
    rcode_.push_back(rec.rcode);
  }

  /// Packs records [begin, end) of the lanes into `out`, in push order.
  void append_to(RecordSet& out, std::size_t begin, std::size_t end) const {
    for (std::size_t i = begin; i < end; ++i) {
      ProbeRecord rec;
      rec.vp = vp_[i];
      rec.t_s = t_s_[i];
      rec.site_id = site_id_[i];
      rec.rtt_ms = rtt_ms_[i];
      rec.letter_index = letter_index_[i];
      rec.outcome = outcome_[i];
      rec.server = server_[i];
      rec.rcode = rcode_[i];
      out.push_back(rec);
    }
  }

 private:
  std::vector<std::uint32_t> vp_;
  std::vector<std::uint32_t> t_s_;
  std::vector<std::int16_t> site_id_;
  std::vector<std::uint16_t> rtt_ms_;
  std::vector<std::uint8_t> letter_index_;
  std::vector<ProbeOutcome> outcome_;
  std::vector<std::uint8_t> server_;
  std::vector<std::uint8_t> rcode_;
};

}  // namespace rootstress::atlas
