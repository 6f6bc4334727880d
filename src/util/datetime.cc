#include "util/datetime.h"

#include <ctime>

#include <cstdio>

namespace snb::util {

std::string FormatTimestamp(TimestampMs ts) {
  std::time_t secs = static_cast<std::time_t>(ts / kMillisPerSecond);
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec);
  return buf;
}

TimestampMs TimestampFromDate(int year, int month, int day) {
  std::tm tm_utc{};
  tm_utc.tm_year = year - 1900;
  tm_utc.tm_mon = month - 1;
  tm_utc.tm_mday = day;
  std::time_t secs = timegm(&tm_utc);
  return static_cast<TimestampMs>(secs) * kMillisPerSecond;
}

void MonthDayOf(TimestampMs ts, int* month, int* day) {
  constexpr int64_t kSecondsPerDay = kMillisPerDay / kMillisPerSecond;
  int64_t secs = ts / kMillisPerSecond;
  int64_t days = secs / kSecondsPerDay;
  if (secs % kSecondsPerDay < 0) --days;  // Floor, also before 1970.
  // Civil-from-days over 400-year eras of 146097 days, with years starting
  // on March 1 so the leap day is the last day of the year.
  int64_t z = days + 719468;  // Days since 0000-03-01.
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  int64_t doe = z - era * 146097;  // Day of era, [0, 146096].
  int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365].
  int64_t mp = (5 * doy + 2) / 153;  // Month from March, [0, 11].
  *day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *month = static_cast<int>(mp < 10 ? mp + 3 : mp - 9);
}

}  // namespace snb::util
