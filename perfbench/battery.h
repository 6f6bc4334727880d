// The output check's read battery: one curated binding per complex query,
// run against the replayed store and against validate::Oracle (the naive
// brute-force evaluator the differential fuzzer trusts) over the network
// the store should hold, compared row by row in canonical form.
#ifndef PERFBENCH_BATTERY_H_
#define PERFBENCH_BATTERY_H_

#include <string>
#include <vector>

#include "driver/operation.h"
#include "schema/dictionaries.h"
#include "schema/entities.h"
#include "store/graph_store.h"

namespace perfbench {

/// Canonical rows of every battery query, in battery order.
using BatteryResults = std::vector<std::vector<std::string>>;

/// The first scheduled instance of each complex query in `operations`,
/// ordered by query id: its parameters are curated bindings.
std::vector<snb::driver::Operation> PickBattery(
    const std::vector<snb::driver::Operation>& operations);

/// Runs the battery on the store, decoding parameters exactly as
/// StoreConnector does.
BatteryResults RunBatteryOnStore(
    const snb::store::GraphStore& store,
    const snb::schema::Dictionaries& dictionaries,
    const std::vector<snb::driver::Operation>& battery);

/// Runs the battery on validate::Oracle over `network`.
BatteryResults RunBatteryOnOracle(
    const snb::schema::SocialNetwork& network,
    const snb::schema::Dictionaries& dictionaries,
    const std::vector<snb::driver::Operation>& battery);

/// Empty when equal; otherwise the first differing query and row.
std::string CompareBattery(const std::vector<snb::driver::Operation>& battery,
                           const BatteryResults& expected,
                           const BatteryResults& actual);

}  // namespace perfbench

#endif  // PERFBENCH_BATTERY_H_
