#include "workloads.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "core/risk_engine.h"
#include "graph/algorithms.h"
#include "service/risk_service.h"
#include "sim/crawler.h"
#include "twin.h"
#include "util/random.h"

namespace perfbench {
namespace {

using sight::AssessmentSnapshot;
using sight::OwnerEvent;
using sight::RiskReport;
using sight::RiskService;
using Snapshot = std::shared_ptr<const AssessmentSnapshot>;

// Paper scale: the study's owners averaged 3,661 strangers, and the
// crawler surfaced them over days in small batches.
constexpr size_t kOwners = 4;
constexpr size_t kPaperStrangers = 3661;
constexpr size_t kCrawlBatch = 100;
// One drain worker: the cores a shared virtual machine delivers can swing
// between about 1 and 4 from minute to minute, and a second worker made
// tick latency follow that swing. One worker keeps every timing on one
// core.
constexpr size_t kDrainWorkers = 1;
// crawl_growth: enough ticks that p90 has at least 10 samples beyond it.
constexpr size_t kMinTicks = 100;
// cold_10k_topk8.
// One 10k owner's cost and query count swing with its ~14 pools from
// seed to seed, so the workload cycles through eight of them.
constexpr size_t kColdOwners = 8;
constexpr size_t kColdStrangers = 10000;
constexpr size_t kColdTopK = 8;
// At least 10 calls beyond the reported p80.
constexpr size_t kMinColdCalls = 50;
constexpr double kColdTailQuantile = 0.8;
// Timed set-ups per run, after one warm-up; setup_s is the median of
// their nominal times. crawl_growth times a batch at the start and a few
// more between passes. cold_10k_topk8 times them all at the start: a
// set-up made while a served 10k fleet is resident ran about three times
// slower than one made before, and a median over both regimes jumps
// between them.
constexpr size_t kCrawlStartSetups = 12;
constexpr size_t kCrawlPassSetups = 4;
constexpr size_t kColdSetups = 12;

// One RiskService serving generated owners, plus everything it points to.
// Members are declared so the service is destroyed before the tables and
// oracles it reads.
struct Fleet {
  std::shared_ptr<const World> world;
  std::vector<std::unique_ptr<sight::sim::OwnerModel>> oracles;
  std::unique_ptr<RiskService> service;
  std::vector<uint64_t> versions;
  std::vector<Snapshot> last;
  /// Per owner, the strangers submitted so far, in service order.
  std::vector<std::vector<UserId>> discovered;
  std::unique_ptr<TwinEngine> twin_engine;
  std::vector<std::unique_ptr<Twin>> twins;

  UserId owner(size_t i) const { return world->owners[i]; }
  size_t size() const { return world->owners.size(); }
};

// Which per-owner caches a fleet's service carries across ticks.
enum class Carries {
  kAll,
  // Learner carry only: the pool partition and the encoded tables are
  // rebuilt on every tick.
  kLearners,
};

std::unique_ptr<Fleet> MakeFleet(std::shared_ptr<const World> world,
                                 uint64_t seed, size_t top_k, Carries carries,
                                 bool with_twins) {
  auto fleet = std::make_unique<Fleet>();
  fleet->world = std::move(world);
  const size_t num_owners = fleet->size();
  sight::RiskServiceConfig config;
  config.engine = EngineConfig(top_k);
  config.num_shards = num_owners;
  config.num_threads = kDrainWorkers;
  config.carry_pool_partition = carries == Carries::kAll;
  config.carry_encoded_tables = carries == Carries::kAll;
  fleet->service = RiskService::Create(config).value();
  if (with_twins) fleet->twin_engine = std::make_unique<TwinEngine>(config.engine);
  for (size_t i = 0; i < num_owners; ++i) {
    fleet->oracles.push_back(MakeOracle(*fleet->world, i));
    sight::OwnerRegistration registration;
    registration.owner = fleet->owner(i);
    registration.graph = &fleet->world->graph;
    registration.profiles = &fleet->world->profiles;
    registration.visibility = &fleet->world->visibility;
    registration.oracle = fleet->oracles.back().get();
    registration.rng_seed = DeriveSeed(seed, Stream::kSampling, i);
    SIGHT_CHECK(fleet->service->RegisterOwner(registration).ok());
    if (with_twins) {
      fleet->twins.push_back(std::make_unique<Twin>(
          fleet->twin_engine.get(), fleet->world.get(), fleet->owner(i),
          MakeOracle(*fleet->world, i), registration.rng_seed));
    }
  }
  fleet->versions.assign(num_owners, 0);
  fleet->last.assign(num_owners, nullptr);
  fleet->discovered.assign(num_owners, {});
  return fleet;
}

// Times a workload's set-up, `set_up(world_seed)`: a batch at the start
// and, where the workload asks for more, a few between measured passes,
// so setup_s sees the machine over more of the run than its first
// seconds. Each timed set-up builds from its own seed, derived from
// --seed, so setup_s is a median over many generated worlds rather than
// the size of one; the set-up the run keeps is built from --seed itself.
// No memory is returned to the system in between, so set-ups reuse the
// heap that earlier ones freed.
//
// Each timed set-up is followed by a reference reading, and its time is
// scaled to the nominal machine by it (see ToNominal).
template <typename SetUp>
class SetUps {
 public:
  using Kept = decltype(std::declval<SetUp&>()(uint64_t{0}));

  SetUps(SetUp set_up, uint64_t seed)
      : set_up_(std::move(set_up)), seed_(seed) {}

  /// One untimed warm-up and `timed` timed set-ups, the last of them from
  /// --seed; returns that last one.
  Kept Start(size_t timed) {
    set_up_(NextSeed()).reset();
    for (size_t s = 1; s < timed; ++s) More(1);
    return Timed(seed_);
  }

  /// `count` more timed set-ups, each discarded when done.
  void More(size_t count) {
    for (size_t s = 0; s < count; ++s) Timed(NextSeed());
  }

  /// Each timed set-up's seconds on the nominal machine.
  const std::vector<double>& nominal_s() const { return nominal_s_; }

  void AddContext(Context* context) const {
    context->Add("setup_samples", static_cast<double>(measured_s_.size()));
    context->Add("setup_measured_s", Median(measured_s_));
  }

 private:
  uint64_t NextSeed() { return DeriveSeed(seed_, Stream::kSetUp, next_++); }

  Kept Timed(uint64_t world_seed) {
    auto start = Clock::now();
    Kept kept = set_up_(world_seed);
    measured_s_.push_back(SecondsSince(start));
    nominal_s_.push_back(ToNominal(measured_s_.back(), ReferenceTaskMs()));
    return kept;
  }

  SetUp set_up_;
  uint64_t seed_;
  uint64_t next_ = 0;
  std::vector<double> measured_s_;
  std::vector<double> nominal_s_;
};

// Per-event timings of the service layer, kept by traced runs.
struct ServiceTimes {
  std::vector<double> submit_ms;
  /// Submit-to-observed latency minus the twin's span sum for the event.
  std::vector<double> overhead_ms;
};

// One closed-loop round: submits `events` (one per listed owner), waits
// for every snapshot, and returns each event's Submit-to-observed
// latency. Failed submits, waits and non-OK snapshots count as failed
// operations. Traced fleets then replay each event on the owner's twin
// and gate the twin's report bitwise against the snapshot.
std::vector<double> RunRound(Fleet* fleet, std::vector<OwnerEvent> events,
                             RunOutput* out, Trace* trace,
                             ServiceTimes* times) {
  const size_t n = events.size();
  std::vector<size_t> index(n);
  std::vector<Clock::time_point> sent(n);
  std::vector<bool> submitted(n, false);
  for (size_t k = 0; k < n; ++k) {
    OwnerEvent& event = events[k];
    size_t i = 0;
    while (fleet->owner(i) != event.owner) ++i;
    index[k] = i;
    std::vector<UserId>& seen = fleet->discovered[i];
    seen.insert(seen.end(), event.discovered.begin(), event.discovered.end());
    if (!fleet->twins.empty()) fleet->twins[i]->AddStrangers(event.discovered);
    sent[k] = Clock::now();
    sight::Status status = fleet->service->Submit(std::move(event));
    if (times != nullptr) times->submit_ms.push_back(MsSince(sent[k]));
    submitted[k] = status.ok();
    if (!status.ok()) {
      out->result.Op(false);
      std::fprintf(stderr, "submit failed: %s\n", status.ToString().c_str());
    }
  }
  std::vector<double> latency_ms(n, 0.0);
  for (size_t k = 0; k < n; ++k) {
    if (!submitted[k]) continue;
    size_t i = index[k];
    auto snapshot =
        fleet->service->WaitFor(fleet->owner(i), ++fleet->versions[i]);
    latency_ms[k] = MsSince(sent[k]);
    bool ok = snapshot.ok() && snapshot.value()->status.ok();
    out->result.Op(ok);
    if (!ok) {
      std::fprintf(stderr, "assessment of owner %zu failed\n", i);
      continue;
    }
    fleet->last[i] = snapshot.value();
  }
  if (fleet->twins.empty()) return latency_ms;
  for (size_t k = 0; k < n; ++k) {
    if (!submitted[k]) continue;
    size_t i = index[k];
    sight::Result<RiskReport> twin = fleet->twins[i]->Assess(trace);
    bool equal = twin.ok() && fleet->last[i] != nullptr &&
                 ReportsBitwiseEqual(twin.value(), fleet->last[i]->report);
    out->result.Op(equal);
    if (!equal) {
      std::fprintf(stderr, "twin of owner %zu diverges from the service\n", i);
    }
    if (times != nullptr) {
      times->overhead_ms.push_back(latency_ms[k] - trace->last_span_sum_ms);
    }
  }
  return latency_ms;
}

// Once per run: the service's cold read-through must equal a batch
// RiskEngine::AssessStrangers over the same strangers, labels, oracle
// and rng, bit for bit.
void GateAssessNow(Fleet* fleet, size_t i, const std::vector<UserId>& strangers,
                   uint64_t seed, size_t top_k, RunOutput* out) {
  SIGHT_CHECK(fleet->service->Flush().ok());
  const World& world = *fleet->world;
  auto engine = sight::RiskEngine::Create(EngineConfig(top_k)).value();
  auto service_oracle = MakeOracle(world, i);
  auto engine_oracle = MakeOracle(world, i);
  sight::Rng service_rng(DeriveSeed(seed, Stream::kColdRng));
  sight::Rng engine_rng(DeriveSeed(seed, Stream::kColdRng));
  const sight::PoolLearner::KnownLabels* labels =
      fleet->service->KnownLabelsView(fleet->owner(i)).value();
  auto now = fleet->service->AssessNow(fleet->owner(i), service_oracle.get(),
                                       &service_rng);
  auto batch = engine.AssessStrangers(
      world.graph, world.profiles, world.visibility, fleet->owner(i), strangers,
      engine_oracle.get(), &engine_rng, labels->empty() ? nullptr : labels,
      /*prior_scores=*/nullptr);
  bool equal =
      now.ok() && batch.ok() && ReportsBitwiseEqual(now.value(), batch.value());
  out->result.Op(equal);
  if (!equal) std::fprintf(stderr, "AssessNow diverges from the batch engine\n");
}

double Ratio(size_t num, size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Owner effort and answer quality over the fleet's latest snapshots.
void AddQuality(const Fleet& fleet, double* owner_queries, double* heldout) {
  size_t queries = 0;
  size_t matches = 0;
  size_t total = 0;
  for (size_t i = 0; i < fleet.oracles.size(); ++i) {
    queries += fleet.oracles[i]->num_queries();
    if (fleet.last[i] != nullptr) {
      CountHeldout(fleet.last[i]->report, *fleet.oracles[i], &matches, &total);
    }
  }
  *owner_queries = Ratio(queries, fleet.oracles.size());
  *heldout = Ratio(matches, total);
}

// What an untraced run reports; names and units match BENCHMARK.json.
// Every time in it is on the nominal machine (see ToNominal).
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;
  double tail_quantile = 0.9;
  double assess_per_s = 0.0;
  double owner_queries = 0.0;
  double heldout_accuracy = 0.0;
  double rss_mb_per_owner = 0.0;
  /// Read before the end-of-run gates, which build extra services.
  double peak_rss_mb = 0.0;
};

void AddEndToEnd(const EndToEnd& e, RunOutput* out) {
  RunResult& r = out->result;
  r.Add("setup_s", Median(e.setup_s), "s");
  r.Add("latency_p50_ms", Median(e.latency_ms), "ms");
  r.Add("latency_tail_ms", Quantile(e.latency_ms, e.tail_quantile), "ms");
  r.Add("assess_per_s", e.assess_per_s, "1/s");
  r.Add("owner_queries", e.owner_queries, "count/owner");
  r.Add("heldout_accuracy", e.heldout_accuracy, "fraction");
  r.Add("rss_mb_per_owner", e.rss_mb_per_owner, "MB");
  r.Add("peak_rss_mb", e.peak_rss_mb, "MB");
  out->context.Add("latency_samples", static_cast<double>(e.latency_ms.size()));
  out->context.Add("latency_tail_quantile", e.tail_quantile);
}

// What a traced run reports; names and units match BENCHMARK.json.
void AddPerLayer(const Trace& trace, const ServiceTimes& times,
                 double coalesced_ratio, double overhead_ratio,
                 RunOutput* out) {
  RunResult& r = out->result;
  double span_ms = 0.0;
  for (size_t s = 0; s < static_cast<size_t>(Span::kCount); ++s) {
    std::string stem = SpanName(static_cast<Span>(s));
    r.Add(stem + "_ms", Median(trace.ms[s]), "ms");
    r.Add(stem + "_total_ms", Sum(trace.ms[s]), "ms");
    span_ms += Sum(trace.ms[s]);
  }
  r.Add("learning.rounds", Ratio(trace.rounds, trace.assessments), "count");
  r.Add("learning.solve_iterations", Ratio(trace.solve_iterations, trace.rounds),
        "count");
  r.Add("learning.cg_share", Ratio(trace.cg_rounds, trace.rounds), "fraction");
  r.Add("similarity.ps_pairs", Ratio(trace.ps_pairs, trace.assessments),
        "count");
  r.Add("core.pools_rebuilt", Ratio(trace.pools_rebuilt, trace.assessments),
        "count");
  r.Add("core.pool_carry_ratio", Ratio(trace.pools_carried, trace.pools_total),
        "fraction");
  r.Add("clustering.squeezed_strangers",
        Ratio(trace.squeezed_strangers, trace.assessments), "count");
  r.Add("core.partition_hit_ratio",
        Ratio(trace.partition_hits, trace.warm_assessments), "fraction");
  r.Add("graph.encode_rows", Ratio(trace.encode_rows, trace.assessments),
        "count");
  r.Add("graph.encode_hit_ratio", Ratio(trace.encode_hits, trace.warm_assessments),
        "fraction");
  r.Add("service.submit_ms", Median(times.submit_ms), "ms");
  r.Add("service.overhead_ms", Median(times.overhead_ms), "ms");
  r.Add("service.coalesced_ratio", coalesced_ratio, "fraction");
  r.Add("trace.overhead_ratio", overhead_ratio, "ratio");
  double wall_ms = Sum(trace.assess_wall_ms);
  r.Add("trace.span_coverage", wall_ms == 0.0 ? 0.0 : span_ms / wall_ms,
        "fraction");
  out->context.Add("traced_assessments", static_cast<double>(trace.assessments));
}

double CoalescedRatio(const RiskService& service) {
  RiskService::Stats stats = service.stats();
  return Ratio(stats.events_coalesced, stats.events_submitted);
}

void AddThreads(RunOutput* out) {
  out->context.Add("threads.generator", 1.0);
  out->context.Add("threads.drain_workers", static_cast<double>(kDrainWorkers));
  out->context.Add("threads.engine", 1.0);
}

// One crawler per owner, surfacing kCrawlBatch strangers a tick.
std::vector<sight::sim::Crawler> MakeCrawlers(const Fleet& fleet,
                                              uint64_t seed) {
  std::vector<sight::sim::Crawler> crawlers;
  for (size_t i = 0; i < fleet.size(); ++i) {
    sight::Rng crawl_rng(DeriveSeed(seed, Stream::kCrawler, i));
    sight::sim::CrawlerConfig config;
    config.batch_size = kCrawlBatch;
    crawlers.push_back(sight::sim::Crawler::Create(fleet.world->graph,
                                                   fleet.owner(i), config,
                                                   &crawl_rng)
                           .value());
  }
  return crawlers;
}

// The next tick: one discovery+assess event per owner whose crawler
// still has strangers to surface. Empty once every crawl is done.
std::vector<OwnerEvent> NextTick(const Fleet& fleet,
                                 std::vector<sight::sim::Crawler>* crawlers) {
  std::vector<OwnerEvent> events;
  for (size_t i = 0; i < crawlers->size(); ++i) {
    sight::sim::Crawler& crawler = (*crawlers)[i];
    if (crawler.done()) continue;
    OwnerEvent event;
    event.owner = fleet.owner(i);
    event.discovered = crawler.Tick();
    events.push_back(std::move(event));
  }
  return events;
}

// Replays every owner's crawl, one closed-loop round per tick. Returns
// the tick latencies. With `reference_ms`, takes a reference reading after
// every tick and appends it there.
std::vector<double> Crawl(Fleet* fleet, uint64_t seed, RunOutput* out,
                          Trace* trace, ServiceTimes* times,
                          std::vector<double>* reference_ms) {
  std::vector<sight::sim::Crawler> crawlers = MakeCrawlers(*fleet, seed);
  std::vector<double> tick_ms;
  for (;;) {
    std::vector<OwnerEvent> events = NextTick(*fleet, &crawlers);
    if (events.empty()) return tick_ms;
    auto tick_start = Clock::now();
    RunRound(fleet, std::move(events), out, trace, times);
    tick_ms.push_back(MsSince(tick_start));
    if (reference_ms != nullptr) reference_ms->push_back(ReferenceTaskMs());
  }
}

// Every pass replays the same crawl on a fresh service, so every owner's
// final snapshot must equal the first pass's, bit for bit.
void GateSameCrawl(const std::vector<Snapshot>& reference, const Fleet& fleet,
                   RunOutput* out) {
  for (size_t i = 0; i < fleet.size(); ++i) {
    bool equal = reference[i] != nullptr && fleet.last[i] != nullptr &&
                 ReportsBitwiseEqual(fleet.last[i]->report, reference[i]->report);
    out->result.Op(equal);
    if (!equal) {
      std::fprintf(stderr, "owner %zu: crawl replay diverges from pass 0\n", i);
    }
  }
}

// Once per run: replays the crawl on two fresh services in lockstep, one
// with every carry on and one that rebuilds the pool partition and the
// encoded tables every tick. Those two carries must not change a bit of
// any tick's assessment. (Learner carry stays on in both: it changes which
// questions are asked, by design.)
void GateCarriesNeutral(std::shared_ptr<const World> world, uint64_t seed,
                        RunOutput* out) {
  std::unique_ptr<Fleet> carried =
      MakeFleet(world, seed, 0, Carries::kAll, false);
  std::unique_ptr<Fleet> rebuilt =
      MakeFleet(world, seed, 0, Carries::kLearners, false);
  std::vector<sight::sim::Crawler> crawlers = MakeCrawlers(*carried, seed);
  for (;;) {
    std::vector<OwnerEvent> events = NextTick(*carried, &crawlers);
    if (events.empty()) return;
    RunRound(rebuilt.get(), events, out, nullptr, nullptr);
    RunRound(carried.get(), std::move(events), out, nullptr, nullptr);
    for (size_t i = 0; i < carried->size(); ++i) {
      const Snapshot& a = carried->last[i];
      const Snapshot& b = rebuilt->last[i];
      bool equal = a != nullptr && b != nullptr &&
                   AssessmentsBitwiseEqual(a->report, b->report);
      out->result.Op(equal);
      if (!equal) {
        std::fprintf(stderr, "owner %zu: carried caches change the result\n",
                     i);
      }
    }
  }
}

}  // namespace

void RunCrawlGrowth(const Options& options, RunOutput* out) {
  AddThreads(out);
  EndToEnd e;
  e.tail_quantile = 0.9;
  double rss_before = TrimmedRssMb();
  // Set-up: world generation, service creation, registration. The kept
  // fleet runs the warm-up pass, and its world serves every pass.
  SetUps set_ups(
      [&](uint64_t world_seed) {
        return MakeFleet(MakeWorld(kOwners, kPaperStrangers, world_seed),
                         options.seed, 0, Carries::kAll, false);
      },
      options.seed);
  std::unique_ptr<Fleet> fleet = set_ups.Start(kCrawlStartSetups);
  const std::shared_ptr<const World> world = fleet->world;
  Trace trace;
  ServiceTimes times;
  std::vector<double> untraced_pass_s;
  std::vector<double> traced_pass_s;
  std::vector<Snapshot> reference;
  std::vector<double> measured_tick_ms;
  size_t assessments = 0;
  auto run_start = Clock::now();
  // Every pass replays the identical crawl on a fresh service over the
  // same world. Pass 0 warms the process up (first page faults, allocator
  // growth) and gives the reference snapshots. Traced runs measure pass 1
  // untraced as the overhead baseline and trace every pass after it.
  for (size_t pass = 0;; ++pass) {
    const bool warmup = pass == 0;
    const bool traced = options.trace && pass > 1;
    if (!warmup) {
      fleet = MakeFleet(world, options.seed, 0, Carries::kAll, traced);
    }
    // Untraced passes take a reference reading after every tick, so
    // their wall time is not comparable with a traced pass's.
    std::vector<double> reference_ms;
    auto pass_start = Clock::now();
    std::vector<double> tick_ms =
        Crawl(fleet.get(), options.seed, out, traced ? &trace : nullptr,
              traced ? &times : nullptr, traced ? nullptr : &reference_ms);
    double pass_wall_s = SecondsSince(pass_start);
    if (warmup) {
      reference = fleet->last;
    } else {
      GateSameCrawl(reference, *fleet, out);
      if (traced) {
        traced_pass_s.push_back(pass_wall_s);
      } else {
        untraced_pass_s.push_back(pass_wall_s - Sum(reference_ms) / 1000.0);
        for (size_t t = 0; t < tick_ms.size(); ++t) {
          measured_tick_ms.push_back(tick_ms[t]);
          e.latency_ms.push_back(ToNominal(tick_ms[t], reference_ms[t]));
        }
        for (const std::vector<UserId>& seen : fleet->discovered) {
          assessments += (seen.size() + kCrawlBatch - 1) / kCrawlBatch;
        }
      }
    }

    bool enough_time = SecondsSince(run_start) >= options.seconds;
    bool done = options.trace ? !traced_pass_s.empty() && enough_time
                              : e.latency_ms.size() >= kMinTicks && enough_time;
    if (done) break;
    fleet.reset();
    set_ups.More(kCrawlPassSetups);
  }
  e.setup_s = set_ups.nominal_s();
  set_ups.AddContext(&out->context);
  AddQuality(*fleet, &e.owner_queries, &e.heldout_accuracy);
  e.rss_mb_per_owner =
      (TrimmedRssMb() - rss_before) / static_cast<double>(kOwners);
  e.peak_rss_mb = PeakRssMb();
  double coalesced = CoalescedRatio(*fleet->service);
  size_t g = options.seed % kOwners;
  GateAssessNow(fleet.get(), g, fleet->discovered[g], options.seed, 0, out);
  fleet.reset();
  GateCarriesNeutral(world, options.seed, out);

  out->context.Add("crawl_wall_s", Median(untraced_pass_s));
  out->context.Add("measured_passes",
                   static_cast<double>(untraced_pass_s.size() +
                                       traced_pass_s.size()));
  if (options.trace) {
    AddPerLayer(trace, times, coalesced,
                Median(traced_pass_s) / Median(untraced_pass_s), out);
    return;
  }
  e.assess_per_s =
      static_cast<double>(assessments) / (Sum(e.latency_ms) / 1000.0);
  out->context.Add("latency_p50_measured_ms", Median(measured_tick_ms));
  AddEndToEnd(e, out);
}

void RunCold10kTopK8(const Options& options, RunOutput* out) {
  AddThreads(out);
  EndToEnd e;
  e.tail_quantile = kColdTailQuantile;
  double rss_before = TrimmedRssMb();
  // Set-up: world generation, service creation, registration, discovery.
  SetUps set_ups(
      [&](uint64_t world_seed) {
        std::unique_ptr<Fleet> fresh = MakeFleet(
            MakeWorld(kColdOwners, kColdStrangers, world_seed), options.seed,
            kColdTopK, Carries::kAll, false);
        for (size_t i = 0; i < kColdOwners; ++i) {
          SIGHT_CHECK(fresh->service->DiscoverAllStrangers(fresh->owner(i)).ok());
        }
        return fresh;
      },
      options.seed);
  std::unique_ptr<Fleet> fleet = set_ups.Start(kColdSetups);
  TwinEngine twin_engine(EngineConfig(kColdTopK));
  Trace trace;
  ServiceTimes times;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  // Per owner, the report of its warm-up call.
  std::vector<RiskReport> first(kColdOwners);
  auto start = Clock::now();
  // Calls cycle through the owners. Cycle 0 warms the process up; traced
  // runs then alternate untraced and traced cycles. A reference reading
  // after each untraced call scales its time.
  for (size_t call = 0;; ++call) {
    const size_t i = call % kColdOwners;
    const size_t cycle = call / kColdOwners;
    const UserId owner = fleet->owner(i);
    // A fresh oracle and the same rng seed: every call on an owner does
    // the same work, and must return the same report.
    auto oracle = MakeOracle(*fleet->world, i);
    sight::Rng rng(DeriveSeed(options.seed, Stream::kColdRng, i));
    auto call_start = Clock::now();
    sight::Result<RiskReport> report =
        fleet->service->AssessNow(owner, oracle.get(), &rng);
    double call_ms = MsSince(call_start);
    out->result.Op(report.ok());
    if (!report.ok()) {
      std::fprintf(stderr, "AssessNow failed: %s\n",
                   report.status().ToString().c_str());
      break;
    }
    if (cycle == 0) {
      first[i] = std::move(report).value();
      start = Clock::now();
      continue;
    }
    bool same = ReportsBitwiseEqual(report.value(), first[i]);
    out->result.Op(same);
    if (!same) {
      std::fprintf(stderr, "owner %zu: AssessNow differs from its first call\n",
                   i);
    }
    if (options.trace && cycle % 2 == 0) {
      auto twin_oracle = MakeOracle(*fleet->world, i);
      sight::Rng twin_rng(DeriveSeed(options.seed, Stream::kColdRng, i));
      sight::Result<RiskReport> twin = Twin::AssessCold(
          twin_engine, *fleet->world, owner, twin_oracle.get(), &twin_rng,
          &trace);
      bool equal = twin.ok() && ReportsBitwiseEqual(twin.value(), first[i]);
      out->result.Op(equal);
      if (!equal) std::fprintf(stderr, "cold twin diverges from AssessNow\n");
      times.overhead_ms.push_back(call_ms - trace.last_span_sum_ms);
      traced_ms.push_back(MsSince(call_start));
    } else {
      untraced_ms.push_back(call_ms);
      e.latency_ms.push_back(ToNominal(call_ms, ReferenceTaskMs()));
    }
    size_t calls = untraced_ms.size() + traced_ms.size();
    if (i + 1 == kColdOwners && calls >= kMinColdCalls &&
        SecondsSince(start) >= options.seconds) {
      break;
    }
  }
  e.setup_s = set_ups.nominal_s();
  set_ups.AddContext(&out->context);
  size_t queries = 0;
  size_t matches = 0;
  size_t total = 0;
  for (size_t i = 0; i < kColdOwners; ++i) {
    queries += first[i].assessment.total_queries;
    CountHeldout(first[i], *MakeOracle(*fleet->world, i), &matches, &total);
  }
  e.owner_queries = Ratio(queries, kColdOwners);
  e.heldout_accuracy = Ratio(matches, total);
  e.rss_mb_per_owner =
      (TrimmedRssMb() - rss_before) / static_cast<double>(kColdOwners);
  e.peak_rss_mb = PeakRssMb();
  size_t g = options.seed % kColdOwners;
  sight::Result<std::vector<UserId>> strangers =
      sight::TwoHopStrangers(fleet->world->graph, fleet->owner(g));
  SIGHT_CHECK(strangers.ok());
  GateAssessNow(fleet.get(), g, strangers.value(), options.seed, kColdTopK,
                out);
  out->context.Add("cold_calls",
                   static_cast<double>(untraced_ms.size() + traced_ms.size()));
  if (options.trace) {
    AddPerLayer(trace, times, 0.0, Median(traced_ms) / Median(untraced_ms), out);
    return;
  }
  e.assess_per_s =
      static_cast<double>(e.latency_ms.size()) / (Sum(e.latency_ms) / 1000.0);
  out->context.Add("latency_p50_measured_ms", Median(untraced_ms));
  AddEndToEnd(e, out);
}

}  // namespace perfbench
