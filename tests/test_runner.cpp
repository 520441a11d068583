// Tests for the campaign runner (src/runner): deterministic job expansion,
// spec parsing, identical results at 1 vs N worker threads, per-job failure
// isolation, and agreement with a direct run_gtd call.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>

#include "core/gtd.hpp"
#include "graph/families.hpp"
#include "runner/campaign.hpp"
#include "runner/emit.hpp"
#include "runner/runner.hpp"

namespace dtop::runner {
namespace {

// ------------------------------ expansion --------------------------------

TEST(Campaign, ExpansionOrderIsDeterministic) {
  CampaignSpec spec;
  spec.families = {"torus", "dering"};
  spec.sizes = {4, 9};
  spec.seeds = {1, 2};
  const std::vector<JobSpec> jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 8u);

  // Families outermost, then sizes, then seeds; index == position.
  EXPECT_EQ(jobs[0].family, "torus");
  EXPECT_EQ(jobs[0].nodes, 4u);
  EXPECT_EQ(jobs[0].seed, 1u);
  EXPECT_EQ(jobs[1].seed, 2u);
  EXPECT_EQ(jobs[2].nodes, 9u);
  EXPECT_EQ(jobs[4].family, "dering");
  for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(jobs[i].index, i);

  // Same spec, same expansion.
  const std::vector<JobSpec> again = expand(spec);
  ASSERT_EQ(again.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(again[i].family, jobs[i].family);
    EXPECT_EQ(again[i].nodes, jobs[i].nodes);
    EXPECT_EQ(again[i].seed, jobs[i].seed);
  }
}

TEST(Campaign, ExpansionCoversConfigsAndScenarios) {
  CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {9};
  spec.seeds = {1};
  spec.configs = {make_engine_config("ratio3"), make_engine_config("ratio4")};
  spec.scenarios = {make_scenario("none"), make_scenario("budget@8"),
                    make_scenario("kill@5")};
  const std::vector<JobSpec> jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].config.label, "ratio3");
  EXPECT_EQ(jobs[0].scenario.label, "none");
  EXPECT_EQ(jobs[1].scenario.label, "budget@8");
  EXPECT_EQ(jobs[2].scenario.label, "kill@5");
  EXPECT_EQ(jobs[3].config.label, "ratio4");
}

TEST(Campaign, RejectsEmptyDimensionsAndUnknownNames) {
  CampaignSpec spec;
  spec.families = {};
  EXPECT_THROW(expand(spec), SpecError);
  spec.families = {"klein_bottle"};
  EXPECT_THROW(expand(spec), SpecError);
  EXPECT_THROW(make_engine_config("warp9"), SpecError);
  EXPECT_THROW(make_scenario("meteor@4"), SpecError);
  EXPECT_THROW(make_scenario("budget"), SpecError);
  EXPECT_THROW(make_scenario("budget@0"), SpecError);
}

TEST(Campaign, EngineConfigPresetsMapToProtocolDelays) {
  EXPECT_EQ(make_engine_config("ratio3").protocol.snake_delay, 2);
  EXPECT_EQ(make_engine_config("ratio3").protocol.loop_delay, 2);
  EXPECT_EQ(make_engine_config("ratio1").protocol.snake_delay, 0);
  EXPECT_EQ(make_engine_config("ratio4").protocol.snake_delay, 3);
  // The default-constructed config matches the paper's design point.
  EXPECT_EQ(EngineConfig{}.protocol.snake_delay, ProtocolConfig{}.snake_delay);
}

// ------------------------------ list/spec parsing ------------------------

TEST(Campaign, ParsesListsAndRanges) {
  EXPECT_EQ(parse_u64_list("sizes", "8,16"),
            (std::vector<std::uint64_t>{8, 16}));
  EXPECT_EQ(parse_u64_list("seeds", "1..4"),
            (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(parse_u64_list("sizes", "8..32:8"),
            (std::vector<std::uint64_t>{8, 16, 24, 32}));
  EXPECT_EQ(parse_u64_list("sizes", "4, 9 16..17"),
            (std::vector<std::uint64_t>{4, 9, 16, 17}));
  EXPECT_THROW(parse_u64_list("seeds", "4..1"), SpecError);
  EXPECT_THROW(parse_u64_list("seeds", "1..9:0"), SpecError);
  EXPECT_THROW(parse_u64_list("seeds", "many"), SpecError);
  EXPECT_THROW(parse_u64_list("seeds", "0..100000000"), SpecError);
}

TEST(Campaign, ParsesSpecText) {
  const CampaignSpec spec = parse_spec_text(
      "# a campaign\n"
      "families = torus, dering\n"
      "sizes = 4..6\n"
      "seeds = 1..3\n"
      "configs = ratio3 ratio4\n"
      "scenarios = none, budget@8\n"
      "root = 0\n"
      "max-ticks = 50000\n");
  EXPECT_EQ(spec.families, (std::vector<std::string>{"torus", "dering"}));
  EXPECT_EQ(spec.sizes, (std::vector<NodeId>{4, 5, 6}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  ASSERT_EQ(spec.configs.size(), 2u);
  EXPECT_EQ(spec.configs[1].label, "ratio4");
  ASSERT_EQ(spec.scenarios.size(), 2u);
  EXPECT_EQ(spec.scenarios[1].kind, FaultScenario::Kind::kBudget);
  EXPECT_EQ(spec.scenarios[1].at, 8);
  EXPECT_EQ(spec.max_ticks, 50000);
  EXPECT_EQ(expand(spec).size(), 2u * 3u * 3u * 2u * 2u);
}

TEST(Campaign, SpecTextRejectsGarbage) {
  EXPECT_THROW(parse_spec_text("sizesz = 4"), SpecError);
  EXPECT_THROW(parse_spec_text("families torus"), SpecError);
  EXPECT_THROW(parse_spec_text("families = klein_bottle"), SpecError);
  EXPECT_THROW(parse_spec_text("sizes = 1"), SpecError);   // size < 2
  EXPECT_THROW(parse_spec_text("sizes =\n"), SpecError);   // empty dimension
}

// ------------------------------ execution --------------------------------

TEST(Runner, MatchesDirectRunGtd) {
  CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {9};
  spec.seeds = {1};
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.jobs.size(), 1u);
  const JobResult& job = result.jobs[0];
  EXPECT_TRUE(job.ok()) << job.detail;

  const FamilyInstance fi = make_family("torus", 9, 1);
  const GtdResult direct = run_gtd(fi.graph, 0);
  EXPECT_EQ(job.ticks, direct.stats.ticks);
  EXPECT_EQ(job.messages, direct.stats.messages);
  EXPECT_EQ(job.node_steps, direct.stats.node_steps);
  EXPECT_EQ(job.n, fi.graph.num_nodes());
  EXPECT_EQ(job.e, fi.graph.num_wires());
}

TEST(Runner, OneVsManyThreadsByteIdentical) {
  CampaignSpec spec;
  spec.families = {"torus", "debruijn"};
  spec.sizes = {8, 16};
  spec.seeds = {1, 2};

  RunnerOptions one;
  one.threads = 1;
  const CampaignResult a = run_campaign(spec, one);
  std::ostringstream ja, ca;
  write_json(ja, a);
  write_csv(ca, a);

  for (const int threads : {2, 8}) {
    RunnerOptions many;
    many.threads = threads;
    const CampaignResult b = run_campaign(spec, many);

    std::ostringstream jb, cb;
    write_json(jb, b);
    write_csv(cb, b);
    EXPECT_EQ(ja.str(), jb.str()) << threads << " threads";
    EXPECT_EQ(ca.str(), cb.str()) << threads << " threads";
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
      EXPECT_EQ(a.jobs[i].ticks, b.jobs[i].ticks) << "job " << i;
      EXPECT_EQ(a.jobs[i].status, b.jobs[i].status) << "job " << i;
    }
  }
}

TEST(Runner, JobFailuresAreIsolated) {
  // One campaign mixing a healthy scenario with a guaranteed tick-budget
  // failure: the bad job is recorded, the good job still verifies, and the
  // campaign never throws.
  CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {9};
  spec.seeds = {1};
  spec.scenarios = {make_scenario("none"), make_scenario("budget@4")};
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_TRUE(result.jobs[0].ok()) << result.jobs[0].detail;
  EXPECT_EQ(result.jobs[1].status, Outcome::kBudget);
  EXPECT_FALSE(result.jobs[1].detail.empty());
  EXPECT_EQ(result.failed(), 1u);
  EXPECT_FALSE(result.all_ok());
}

TEST(Runner, ViolationsAreCapturedPerJob) {
  // A rogue UNMARK token at an unmarked processor trips a protocol
  // invariant (tests/test_faults.cpp); the runner must convert the throw
  // into a per-job kViolation result instead of dying.
  CampaignSpec spec;
  spec.families = {"dering"};
  spec.sizes = {5};
  spec.seeds = {1};
  spec.scenarios = {make_scenario("none"), make_scenario("unmark@3")};
  spec.max_ticks = 100000;
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_TRUE(result.jobs[0].ok()) << result.jobs[0].detail;
  EXPECT_FALSE(result.jobs[1].ok());
  EXPECT_FALSE(result.jobs[1].detail.empty());
}

TEST(Runner, UnreachedInjectionTickIsReportedInDetail) {
  // A fault tick beyond termination must not masquerade as "survived the
  // fault": the job stays exact but its detail says no fault ever fired.
  CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {4};
  spec.seeds = {1};
  spec.scenarios = {make_scenario("kill@100000000")};
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].status, Outcome::kExact);
  EXPECT_NE(result.jobs[0].detail.find("never reached"), std::string::npos)
      << result.jobs[0].detail;
}

TEST(Runner, ProgressReportsEveryJobExactlyOnce) {
  CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {4};
  spec.seeds = {1, 2, 3};
  RunnerOptions opt;
  opt.threads = 4;
  std::vector<std::size_t> seen;
  std::size_t total_seen = 0;
  opt.progress = [&](const JobResult& r, std::size_t done, std::size_t total) {
    seen.push_back(r.spec.index);
    EXPECT_EQ(done, seen.size());  // the done counter is serialized
    total_seen = total;
  };
  const CampaignResult result = run_campaign(spec, opt);
  EXPECT_EQ(result.jobs.size(), 3u);
  EXPECT_EQ(total_seen, 3u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

// ------------------------------ emitters ---------------------------------

TEST(Emit, JsonHasPerJobFieldsAndEscapes) {
  CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {9};
  spec.seeds = {1};
  const CampaignResult result = run_campaign(spec);
  std::ostringstream os;
  write_json(os, result);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ticks\""), std::string::npos);
  EXPECT_NE(json.find("\"messages\""), std::string::npos);
  EXPECT_NE(json.find("\"verify\": true"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"exact\""), std::string::npos);
  EXPECT_EQ(json.find("wall_ms"), std::string::npos);  // timing off by default

  std::ostringstream timed;
  write_json(timed, result, EmitOptions{.timing = true});
  EXPECT_NE(timed.str().find("wall_ms"), std::string::npos);

  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Emit, BenchJsonShape) {
  // The one BENCH_<exp>.json writer of the bench binaries and loadgen:
  // numeric cells as JSON numbers, others as strings, bench_threads only
  // when given; a table without rows closes on the same line.
  Table full({"label", "ticks", "ratio"});
  full.set_caption("c \"q\"");
  full.add_row({"torus-3x3", "2029", "56.361"});
  full.add_row({"x", "-", "1e3"});
  Table empty({"a"});
  std::ostringstream with, without;
  write_bench_json(with, "E0", {{"full", full}, {"empty", empty}}, 3, true);
  write_bench_json(without, "LOADGEN", {{"full", full}}, std::nullopt, false);
  const std::string tables =
      "  \"tables\": {\n    \"full\": {\"caption\": \"c \\\"q\\\"\",\n"
      "     \"columns\": [\"label\", \"ticks\", \"ratio\"],\n"
      "     \"rows\": [\n       [\"torus-3x3\", 2029, 56.361],\n"
      "       [\"x\", \"-\", 1e3]\n     ]}";
  EXPECT_EQ(with.str().rfind("{\n  \"experiment\": \"E0\",\n  \"env\": {", 0),
            0u);
  EXPECT_NE(with.str().find(", \"bench_threads\": 3, \"quick\": true},\n" +
                            tables +
                            ",\n    \"empty\": {\"caption\": \"\",\n"
                            "     \"columns\": [\"a\"],\n"
                            "     \"rows\": []}\n  }\n}\n"),
            std::string::npos)
      << with.str();
  EXPECT_EQ(without.str().find("bench_threads"), std::string::npos);
  EXPECT_NE(without.str().find(", \"quick\": false},\n" + tables +
                               "\n  }\n}\n"),
            std::string::npos)
      << without.str();
}

TEST(Cancel, PreSetFlagStopsBeforeAnyJob) {
  CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {9};
  spec.seeds = {1, 2, 3};
  std::atomic<bool> cancel{true};
  RunnerOptions opt;
  opt.cancel = &cancel;
  const CampaignResult result = run_campaign(spec, opt);
  EXPECT_TRUE(result.interrupted);
  EXPECT_TRUE(result.jobs.empty());
}

TEST(Cancel, MidCampaignCancelKeepsCompletedPrefix) {
  CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {9};
  spec.seeds = {1, 2, 3, 4, 5, 6};
  std::atomic<bool> cancel{false};
  RunnerOptions opt;
  opt.threads = 1;
  opt.cancel = &cancel;
  // The flag flips during job 1's completion callback; the worker then
  // stops before claiming job 2 — the in-flight job drains, nothing is torn.
  opt.progress = [&](const JobResult&, std::size_t done, std::size_t) {
    if (done == 2) cancel.store(true);
  };
  const CampaignResult result = run_campaign(spec, opt);
  EXPECT_TRUE(result.interrupted);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].spec.index, 0u);
  EXPECT_EQ(result.jobs[1].spec.index, 1u);
  EXPECT_TRUE(result.jobs[0].ok());
  EXPECT_TRUE(result.jobs[1].ok());

  // Partial output still flushes as *valid* JSON, flagged as interrupted.
  std::ostringstream os;
  write_json(os, result);
  EXPECT_NE(os.str().find("\"interrupted\": true"), std::string::npos);
  EXPECT_NE(os.str().find("\"jobs\": 2"), std::string::npos);
}

TEST(Cancel, CompletedCampaignIsNotInterrupted) {
  CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {9};
  std::atomic<bool> cancel{false};
  RunnerOptions opt;
  opt.cancel = &cancel;
  const CampaignResult result = run_campaign(spec, opt);
  EXPECT_FALSE(result.interrupted);
  std::ostringstream os;
  write_json(os, result);
  EXPECT_EQ(os.str().find("interrupted"), std::string::npos);
}

TEST(Emit, CsvHasHeaderAndOneRowPerJob) {
  CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {4, 9};
  spec.seeds = {1};
  const CampaignResult result = run_campaign(spec);
  std::ostringstream os;
  write_csv(os, result);
  const std::string csv = os.str();
  std::size_t lines = 0;
  for (const char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 3u);  // header + 2 jobs
  EXPECT_EQ(csv.rfind("index,family,label", 0), 0u);
}

}  // namespace
}  // namespace dtop::runner
