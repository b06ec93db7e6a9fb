#include "src/common/timer.hpp"

#include <ctime>

namespace ebem {
namespace {

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

CpuTimer::CpuTimer() : start_(now()) {}

void CpuTimer::reset() { start_ = now(); }

double CpuTimer::seconds() const { return now() - start_; }

double CpuTimer::now() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace ebem
