#include "spotbid/serve/model_snapshot.hpp"

#include <utility>

#include "spotbid/core/contracts.hpp"
#include "spotbid/dist/empirical.hpp"
#include "spotbid/provider/calibration.hpp"

namespace spotbid::serve {

ModelSnapshot::ModelSnapshot(std::string key, bidding::SpotPriceModel model,
                             provider::ProviderModel provider)
    : key_(std::move(key)), model_(std::move(model)), provider_(std::move(provider)) {
  SPOTBID_EXPECT(!key_.empty(), "ModelSnapshot: key must be non-empty");
  // Borrow the empirical law when there is one: snapshot_io needs the
  // concrete type to persist its samples. The pointer shares lifetime with
  // model_'s DistributionPtr, which this snapshot owns.
  empirical_ = dynamic_cast<const dist::Empirical*>(&model_.distribution());
}

std::shared_ptr<ModelSnapshot> ModelSnapshot::from_trace(std::string key,
                                                         const trace::PriceTrace& trace,
                                                         const ec2::InstanceType& type) {
  return std::make_shared<ModelSnapshot>(
      std::move(key), bidding::SpotPriceModel::from_trace(trace, type.on_demand),
      provider::calibrated_model(type));
}

std::shared_ptr<ModelSnapshot> ModelSnapshot::from_type(std::string key,
                                                        const ec2::InstanceType& type) {
  return std::make_shared<ModelSnapshot>(std::move(key),
                                         bidding::SpotPriceModel::from_type(type),
                                         provider::calibrated_model(type));
}

}  // namespace spotbid::serve
