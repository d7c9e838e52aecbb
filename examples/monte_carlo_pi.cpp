// Monte Carlo pi estimation on the simulated cluster (paper Section III-A):
// integer PRN generation and FP hit testing run as cooperative parallel
// threads under COPIFT, and the estimate is read back from TCDM.
#include <cstdio>

#include "common/bits.hpp"
#include "kernels/runner.hpp"
#include "rvasm/assembler.hpp"
#include "sim/cluster.hpp"
#include "workload/workload.hpp"

int main() {
  using namespace copift;
  using namespace copift::kernels;

  std::printf("Monte Carlo pi with cooperative integer/FP threads (COPIFT)\n\n");
  std::printf("%10s %12s %10s %8s %9s\n", "samples", "estimate", "cycles", "IPC",
              "samples/kcycle");
  for (const std::uint32_t n : {768u, 3072u, 12288u, 49152u}) {
    KernelConfig cfg;
    cfg.n = n;
    cfg.block = 96;
    cfg.seed = 7;
    const auto generated = workload::generate("pi_xoshiro128p", Variant::kCopift, cfg);
    sim::Cluster cluster(rvasm::assemble(generated.source));
    populate_inputs(cluster, generated);
    cluster.run();
    const double hits =
        bit_cast<double>(cluster.memory().load64(cluster.program().symbol("result")));
    const double estimate = 4.0 * hits / n;
    const auto& c = cluster.counters();
    std::printf("%10u %12.6f %10llu %8.2f %9.1f\n", n, estimate,
                static_cast<unsigned long long>(c.cycles), c.ipc(),
                1000.0 * n / static_cast<double>(c.cycles));
  }
  std::printf("\n(pi = 3.141593; the estimate converges as 1/sqrt(n))\n");

  // Cross-check against the baseline at one size.
  KernelConfig cfg;
  cfg.n = 12288;
  cfg.block = 96;
  cfg.seed = 7;
  const auto base = run_kernel(workload::generate("pi_xoshiro128p", Variant::kBaseline, cfg));
  const auto cop = run_kernel(workload::generate("pi_xoshiro128p", Variant::kCopift, cfg));
  std::printf("\nAt n=12288: baseline %llu cycles, COPIFT %llu cycles (%.2fx speedup),\n"
              "both verified bit-exactly against the reference PRNG streams.\n",
              static_cast<unsigned long long>(base.region.cycles),
              static_cast<unsigned long long>(cop.region.cycles),
              static_cast<double>(base.region.cycles) / cop.region.cycles);
  return 0;
}
