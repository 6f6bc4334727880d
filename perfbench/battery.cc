#include "battery.h"

#include <atomic>
#include <map>
#include <thread>

#include "queries/complex_queries.h"
#include "validate/canonical.h"
#include "validate/oracle.h"

namespace perfbench {

using snb::driver::Operation;
using snb::driver::OperationType;
using snb::schema::PlaceId;
using snb::schema::TagId;
using snb::util::TimestampMs;
using snb::validate::CanonicalRows;
using snb::validate::CanonicalScalar;

namespace {

/// Dictionary-derived query inputs, built as StoreConnector builds them.
struct Decoder {
  explicit Decoder(const snb::schema::Dictionaries& dict) : dict(dict) {
    for (const auto& c : dict.cities()) city_country.push_back(c.country_id);
    for (const auto& c : dict.companies()) {
      company_country.push_back(c.country_id);
    }
    tag_in_class.assign(dict.tag_classes().size(),
                        std::vector<bool>(dict.tags().size(), false));
    for (size_t t = 0; t < dict.tags().size(); ++t) {
      tag_in_class[dict.tags()[t].tag_class_id][t] = true;
    }
  }

  const snb::schema::Dictionaries& dict;
  std::vector<PlaceId> city_country;
  std::vector<PlaceId> company_country;
  std::vector<std::vector<bool>> tag_in_class;
};

/// Gives the store the oracle's member-call shape.
struct StoreEngine {
  const snb::store::GraphStore& s;
  template <typename... A>
  auto Query1(const A&... a) const { return snb::queries::Query1(s, a...); }
  template <typename... A>
  auto Query2(const A&... a) const { return snb::queries::Query2(s, a...); }
  template <typename... A>
  auto Query3(const A&... a) const { return snb::queries::Query3(s, a...); }
  template <typename... A>
  auto Query4(const A&... a) const { return snb::queries::Query4(s, a...); }
  template <typename... A>
  auto Query5(const A&... a) const { return snb::queries::Query5(s, a...); }
  template <typename... A>
  auto Query6(const A&... a) const { return snb::queries::Query6(s, a...); }
  template <typename... A>
  auto Query7(const A&... a) const { return snb::queries::Query7(s, a...); }
  template <typename... A>
  auto Query8(const A&... a) const { return snb::queries::Query8(s, a...); }
  template <typename... A>
  auto Query9(const A&... a) const { return snb::queries::Query9(s, a...); }
  template <typename... A>
  auto Query10(const A&... a) const { return snb::queries::Query10(s, a...); }
  template <typename... A>
  auto Query11(const A&... a) const { return snb::queries::Query11(s, a...); }
  template <typename... A>
  auto Query12(const A&... a) const { return snb::queries::Query12(s, a...); }
  template <typename... A>
  auto Query13(const A&... a) const { return snb::queries::Query13(s, a...); }
  template <typename... A>
  auto Query14(const A&... a) const { return snb::queries::Query14(s, a...); }
};

template <typename Engine>
std::vector<std::string> RunOne(const Engine& e, const Decoder& d,
                                const Operation& op) {
  auto date0 = static_cast<TimestampMs>(op.aux0);
  switch (op.query_id) {
    case 1:
      return CanonicalRows(
          e.Query1(op.person_param, d.dict.FirstName(op.aux0)));
    case 2: return CanonicalRows(e.Query2(op.person_param, date0));
    case 3:
      return CanonicalRows(e.Query3(
          op.person_param, d.city_country,
          static_cast<PlaceId>(op.aux0 & 0xff),
          static_cast<PlaceId>((op.aux0 >> 8) & 0xff),
          static_cast<TimestampMs>(op.aux1), 30));
    case 4:
      return CanonicalRows(
          e.Query4(op.person_param, date0, static_cast<int>(op.aux1)));
    case 5: return CanonicalRows(e.Query5(op.person_param, date0));
    case 6:
      return CanonicalRows(
          e.Query6(op.person_param, static_cast<TagId>(op.aux0)));
    case 7: return CanonicalRows(e.Query7(op.person_param));
    case 8: return CanonicalRows(e.Query8(op.person_param));
    case 9: return CanonicalRows(e.Query9(op.person_param, date0));
    case 10:
      return CanonicalRows(
          e.Query10(op.person_param, static_cast<int>(op.aux0)));
    case 11:
      return CanonicalRows(e.Query11(op.person_param, d.company_country,
                                     static_cast<PlaceId>(op.aux0),
                                     static_cast<uint16_t>(op.aux1)));
    case 12:
      return CanonicalRows(e.Query12(
          op.person_param, d.tag_in_class[op.aux0 % d.tag_in_class.size()]));
    case 13:
      return CanonicalScalar(e.Query13(op.person_param, op.person_param2));
    case 14: return CanonicalRows(e.Query14(op.person_param, op.person_param2));
  }
  return {"<unknown query id>"};
}

/// Runs the battery on `threads` threads (each query is independent and
/// both engines are read-only here).
template <typename Engine>
BatteryResults RunAll(const Engine& e,
                      const snb::schema::Dictionaries& dictionaries,
                      const std::vector<Operation>& battery, int threads) {
  Decoder decoder(dictionaries);
  BatteryResults out(battery.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i; (i = next.fetch_add(1)) < battery.size();) {
      out[i] = RunOne(e, decoder, battery[i]);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return out;
}

}  // namespace

std::vector<Operation> PickBattery(const std::vector<Operation>& operations) {
  std::map<int, Operation> first;
  for (const Operation& op : operations) {
    if (op.type == OperationType::kComplexRead) {
      first.emplace(op.query_id, op);
    }
  }
  std::vector<Operation> battery;
  for (const auto& [id, op] : first) battery.push_back(op);
  return battery;
}

BatteryResults RunBatteryOnStore(
    const snb::store::GraphStore& store,
    const snb::schema::Dictionaries& dictionaries,
    const std::vector<Operation>& battery) {
  return RunAll(StoreEngine{store}, dictionaries, battery, 1);
}

BatteryResults RunBatteryOnOracle(
    const snb::schema::SocialNetwork& network,
    const snb::schema::Dictionaries& dictionaries,
    const std::vector<Operation>& battery) {
  // The naive oracle takes seconds per query at SF1: spread it over the
  // cores. It runs during set-up, never beside a timed replay.
  return RunAll(snb::validate::Oracle(network), dictionaries, battery, 4);
}

std::string CompareBattery(const std::vector<Operation>& battery,
                           const BatteryResults& expected,
                           const BatteryResults& actual) {
  if (expected.size() != actual.size()) {
    return "battery size " + std::to_string(actual.size()) +
           " != expected " + std::to_string(expected.size());
  }
  for (size_t q = 0; q < expected.size(); ++q) {
    const auto& want = expected[q];
    const auto& got = actual[q];
    for (size_t r = 0; r < want.size() || r < got.size(); ++r) {
      const std::string absent = "<absent>";
      const std::string& w = r < want.size() ? want[r] : absent;
      const std::string& g = r < got.size() ? got[r] : absent;
      if (w != g) {
        return "complex.Q" + std::to_string(battery[q].query_id) + " row " +
               std::to_string(r) + ": got '" + g + "', expected '" + w + "'";
      }
    }
  }
  return "";
}

}  // namespace perfbench
