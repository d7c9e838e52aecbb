// Workload-registry tests: registration semantics, name lookup errors,
// workload-qualified validation messages, and the two out-of-paper workloads
// (axpy, softmax) running end-to-end through the batch engine — proving the
// registry API is genuinely open.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "engine/experiment.hpp"
#include "kernels/kernels.hpp"
#include "kernels/runner.hpp"
#include "workload/workload.hpp"

namespace copift::workload {
namespace {

/// Minimal workload for registry-semantics tests (never simulated).
class DummyWorkload final : public Workload {
 public:
  explicit DummyWorkload(std::string name) : name_(std::move(name)) {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::string generate(Variant, const WorkloadConfig&) const override {
    return "_start:\n  ecall\n";
  }
  void verify_outputs(sim::Cluster&, Variant, const WorkloadConfig&) const override {}

 private:
  std::string name_;
};

// --- registry semantics (on a local instance, not the process-wide one) -----

TEST(WorkloadRegistry, RegistersAndResolvesByName) {
  WorkloadRegistry registry;
  registry.add(std::make_shared<DummyWorkload>("beta"));
  registry.add(std::make_shared<DummyWorkload>("alpha"));
  EXPECT_EQ(registry.size(), 2u);
  ASSERT_NE(registry.find("alpha"), nullptr);
  EXPECT_EQ(registry.find("alpha")->name(), "alpha");
  EXPECT_EQ(registry.find("gamma"), nullptr);
  const auto names = registry.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");  // sorted
  EXPECT_EQ(names[1], "beta");
}

TEST(WorkloadRegistry, DuplicateRegistrationThrows) {
  WorkloadRegistry registry;
  registry.add(std::make_shared<DummyWorkload>("dup"));
  try {
    registry.add(std::make_shared<DummyWorkload>("dup"));
    FAIL() << "expected an exception";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("dup"), std::string::npos);
  }
  EXPECT_THROW(registry.add(nullptr), Error);
  EXPECT_THROW(registry.add(std::make_shared<DummyWorkload>("")), Error);
}

TEST(WorkloadRegistry, UnknownNameListsRegisteredWorkloads) {
  WorkloadRegistry registry;
  registry.add(std::make_shared<DummyWorkload>("alpha"));
  registry.add(std::make_shared<DummyWorkload>("beta"));
  try {
    (void)registry.at("gamma");
    FAIL() << "expected an exception";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gamma"), std::string::npos);
    EXPECT_NE(what.find("alpha"), std::string::npos);
    EXPECT_NE(what.find("beta"), std::string::npos);
  }
}

// --- the process-wide registry ------------------------------------------------

TEST(WorkloadRegistry, ProcessRegistryHoldsPaperAndExtraWorkloads) {
  const auto names = WorkloadRegistry::instance().names();
  for (const auto expected :
       {"exp", "log", "poly_lcg", "pi_lcg", "poly_xoshiro128p", "pi_xoshiro128p", "axpy",
        "softmax"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
  }
}

TEST(PaperWorkloads, TranscendentalClassification) {
  EXPECT_TRUE(kernels::is_transcendental("exp"));
  EXPECT_TRUE(kernels::is_transcendental("log"));
  EXPECT_FALSE(kernels::is_transcendental("pi_lcg"));
  EXPECT_FALSE(kernels::is_transcendental("axpy"));
}

// --- validation errors name the workload and the offending values -----------

TEST(Validation, ErrorsCarryWorkloadVariantAndValues) {
  WorkloadConfig cfg;
  cfg.n = 1024;
  cfg.block = 48;  // does not divide 1024
  try {
    (void)workload::generate("exp", Variant::kCopift, cfg);
    FAIL() << "expected an exception";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "exp/copift: block=48 does not divide n=1024");
  }

  cfg.block = 32;
  cfg.n = 30;
  try {
    (void)workload::generate("pi_lcg", Variant::kBaseline, cfg);
    FAIL() << "expected an exception";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pi_lcg/baseline"), std::string::npos);
    EXPECT_NE(what.find("n=30"), std::string::npos);
  }
}

TEST(Validation, UnsupportedVariantIsRejectedWithTheSupportedList) {
  try {
    (void)workload::generate("softmax", Variant::kCopift, WorkloadConfig{});
    FAIL() << "expected an exception";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("softmax/copift"), std::string::npos);
    EXPECT_NE(what.find("baseline"), std::string::npos);
  }
}

// --- the out-of-paper workloads run end-to-end through the engine -----------

TEST(OpenWorkloads, AxpyRunsAndVerifiesInBothVariants) {
  const auto axpy = WorkloadRegistry::instance().at("axpy");
  EXPECT_TRUE(axpy->supports(Variant::kBaseline));
  EXPECT_TRUE(axpy->supports(Variant::kCopift));
  WorkloadConfig cfg;
  cfg.n = 128;
  const auto base = kernels::run_kernel(axpy->instantiate(Variant::kBaseline, cfg));
  const auto cop = kernels::run_kernel(axpy->instantiate(Variant::kCopift, cfg));
  EXPECT_TRUE(base.verified);
  EXPECT_TRUE(cop.verified);
  // The SSR/FREP form approaches one element per cycle and beats the scalar
  // loop comfortably.
  EXPECT_LT(cop.region.cycles, base.region.cycles);
}

TEST(OpenWorkloads, AxpyAndSoftmaxSweepThroughTheEngine) {
  engine::SimEngine pool(2);
  const auto axpy_table = engine::Experiment()
                              .over("axpy")
                              .over({Variant::kBaseline, Variant::kCopift})
                              .sweep_n({128, 256})
                              .run(pool);
  ASSERT_EQ(axpy_table.size(), 4u);
  for (const auto& row : axpy_table.rows()) EXPECT_TRUE(row.run.verified);
  ASSERT_NE(axpy_table.find("axpy", Variant::kCopift, 256), nullptr);

  const auto softmax_table = engine::Experiment()
                                 .over("softmax")
                                 .over(Variant::kBaseline)
                                 .sweep_n({64, 128})
                                 .run(pool);
  ASSERT_EQ(softmax_table.size(), 2u);
  for (const auto& row : softmax_table.rows()) EXPECT_TRUE(row.run.verified);
  EXPECT_NE(softmax_table.csv().find("softmax,baseline,64"), std::string::npos);
}

TEST(OpenWorkloads, SteadyMetricsWorkForRegisteredWorkloads) {
  engine::SimEngine pool(2);
  const auto table = engine::Experiment()
                         .over({"axpy", "softmax"})
                         .over(Variant::kBaseline)
                         .steady(128, 256)
                         .run(pool);
  ASSERT_EQ(table.size(), 2u);
  for (const auto& row : table.rows()) {
    ASSERT_TRUE(row.steady);
    EXPECT_GT(row.metrics.cycles_per_item, 0.0);
    EXPECT_GT(row.metrics.energy_pj_per_item, 0.0);
    EXPECT_TRUE(row.run.verified);
  }
  // Two direct runs combined by hand agree with the engine's steady mode.
  const auto axpy = WorkloadRegistry::instance().at("axpy");
  WorkloadConfig c1;
  c1.n = 128;
  WorkloadConfig c2;
  c2.n = 256;
  const auto direct = kernels::steady_from_runs(
      kernels::run_kernel(axpy->instantiate(Variant::kBaseline, c1)),
      kernels::run_kernel(axpy->instantiate(Variant::kBaseline, c2)), axpy->items(c1),
      axpy->items(c2));
  const auto* row = table.find("axpy", Variant::kBaseline);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(direct.delta_cycles, row->metrics.delta_cycles);
  EXPECT_EQ(direct.cycles_per_item, row->metrics.cycles_per_item);
}

}  // namespace
}  // namespace copift::workload
