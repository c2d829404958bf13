// Prints the bit patterns of a few libm results at fixed arguments. The
// paper_results test stores this fingerprint beside its goldens: the
// reproduced tables print doubles, so a libm that rounds differently can
// move a printed digit, and the goldens then no longer apply.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>

int main() {
  // volatile keeps the compiler from folding the calls at build time.
  volatile double a = 0.7;
  volatile double b = 4.7;
  const struct {
    const char* call;
    double value;
  } probes[] = {
      {"exp(-0.7)", std::exp(-a)},        {"log(0.7)", std::log(a)},
      {"log1p(0.7)", std::log1p(a)},      {"pow(0.7, 4.7)", std::pow(a, b)},
      {"lgamma(4.7)", std::lgamma(b)},    {"exp(4.7)", std::exp(b)},
  };
  for (const auto& probe : probes)
    std::printf("%s = %016llx\n", probe.call,
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(probe.value)));
  return 0;
}
