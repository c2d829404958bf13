#pragma once

/// \file model_snapshot.hpp
/// An immutable, shareable view of one market's calibrated models.
///
/// A ModelSnapshot packages everything the advisory engine needs to answer
/// queries about one (region x instance type) market:
///
///  - the user-side SpotPriceModel (Sections 5-6): the price law F_pi the
///    Proposition-4/5 bids and the eq. 8-15 cost formulas read;
///  - the provider-side ProviderModel (Section 4): eq. 3 optimal pricing
///    for kProviderPrice queries;
///  - when the price law is an Empirical distribution, a borrowed pointer
///    to it, through which snapshot_io persists the law's samples.
///
/// Snapshots are immutable after publication: all state is set at
/// construction except the epoch stamp, which SnapshotStore::publish writes
/// once (atomically) when the snapshot becomes visible. Readers therefore
/// never synchronize with recalibration beyond the single atomic
/// shared_ptr load in SnapshotStore::find.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "spotbid/bidding/price_model.hpp"
#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/provider/model.hpp"
#include "spotbid/trace/price_trace.hpp"

namespace spotbid::dist {
class Empirical;
}

namespace spotbid::serve {

class SnapshotStore;

class ModelSnapshot {
 public:
  /// Direct construction from already-built models. `key` is the market
  /// this snapshot describes (see make_key in request.hpp).
  ModelSnapshot(std::string key, bidding::SpotPriceModel model,
                provider::ProviderModel provider);

  /// Calibrate from recorded (or imported) price history: empirical price
  /// law over the trace, provider parameters from the instance type's
  /// Section-4.3 calibration. This is the path a live service refreshes
  /// through — append fresh slots to the trace, rebuild, publish.
  [[nodiscard]] static std::shared_ptr<ModelSnapshot> from_trace(
      std::string key, const trace::PriceTrace& trace, const ec2::InstanceType& type);

  /// Calibrate from the instance type alone: the Proposition-3 analytic
  /// equilibrium price law via provider/calibration.
  [[nodiscard]] static std::shared_ptr<ModelSnapshot> from_type(
      std::string key, const ec2::InstanceType& type);

  [[nodiscard]] const std::string& key() const { return key_; }
  [[nodiscard]] const bidding::SpotPriceModel& model() const { return model_; }
  [[nodiscard]] const provider::ProviderModel& provider() const { return provider_; }

  /// The price law as an Empirical distribution when it is one, nullptr
  /// for analytic laws (snapshot_io persists an empirical law's samples).
  [[nodiscard]] const dist::Empirical* empirical() const { return empirical_; }

  /// Publication epoch: 0 until the snapshot is published, then the
  /// store-wide monotone epoch it was published at.
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

 private:
  friend class SnapshotStore;

  std::string key_;
  bidding::SpotPriceModel model_;
  provider::ProviderModel provider_;
  const dist::Empirical* empirical_ = nullptr;  ///< borrowed from model_
  /// Written once by SnapshotStore::publish; atomic because a snapshot can
  /// be read (epoch() in responses) concurrently with publication.
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace spotbid::serve
