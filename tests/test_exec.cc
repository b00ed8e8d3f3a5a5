/**
 * @file
 * Tests for the parallel execution engine: fork-join lanes, memo and
 * compiled-model caches, session compile-once behavior, and the
 * parallel sweep path (determinism, error isolation, byte-identical
 * exports).
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/api.hh"
#include "core/sweep.hh"
#include "core/sweep_io.hh"
#include "critpath/critpath.hh"
#include "exec/engine.hh"
#include "exec/memo_cache.hh"
#include "exec/thread_pool.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace {

AcceleratorConfig
smallLerGan()
{
    AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    return config;
}

AcceleratorConfig
smallPrime()
{
    AcceleratorConfig config = AcceleratorConfig::prime();
    config.batchSize = 4;
    return config;
}

/** 2 benchmarks x 2 configs, small batch — the test grid. */
ExperimentSweep
smallSweep()
{
    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addBenchmark(makeBenchmark("cGAN"))
        .addConfig("lergan", smallLerGan())
        .addConfig("prime", smallPrime());
    return sweep;
}

TEST(ParallelFor, RunsEveryTaskAcrossWorkers)
{
    constexpr std::size_t kTasks = 100;
    std::atomic<int> ran{0};
    std::mutex mutex;
    std::set<std::thread::id> workers;
    parallelFor(kTasks, 4, [&](std::size_t, std::size_t lane) {
        EXPECT_LT(lane, 4u);
        ran.fetch_add(1);
        std::lock_guard lock(mutex);
        workers.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(ran.load(), static_cast<int>(kTasks));
    // Everything ran on the lanes' threads, never on this thread.
    EXPECT_LE(workers.size(), 4u);
    EXPECT_EQ(workers.count(std::this_thread::get_id()), 0u);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnceWithBoundedLanes)
{
    // The lanes claim chunks off a shared cursor; the contract that
    // survives the chunking is that every index in [0, count) runs
    // exactly once and every lane id is below min(workers, count).
    // scripts/check.sh re-runs this under -fsanitize=thread
    // (ctest -L tsan).
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> runs(kCount);
    std::atomic<std::size_t> maxLane{0};
    parallelFor(kCount, 4, [&](std::size_t i, std::size_t lane) {
        runs[i].fetch_add(1);
        std::size_t cur = maxLane.load();
        while (lane > cur &&
               !maxLane.compare_exchange_weak(cur, lane)) {
        }
    });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(runs[i].load(), 1) << "index " << i;
    EXPECT_LT(maxLane.load(), 4u);
}

TEST(ParallelFor, NeverOverlapsTwoBodiesOnOneLane)
{
    // Sweep workers index per-lane scratch arenas with the lane id, so
    // two bodies must never run concurrently under the same lane.
    constexpr std::size_t kCount = 4000;
    std::array<std::atomic<int>, 8> inUse{};
    std::atomic<bool> overlapped{false};
    parallelFor(kCount, 8, [&](std::size_t, std::size_t lane) {
        ASSERT_LT(lane, inUse.size());
        if (inUse[lane].fetch_add(1) != 0)
            overlapped.store(true);
        inUse[lane].fetch_sub(1);
    });
    EXPECT_FALSE(overlapped.load());
}

TEST(ParallelFor, OnOneWorkerVisitsIndicesInAscendingOrder)
{
    // With a single worker the shared cursor degenerates to a plain
    // ascending scan — the property the 1-worker determinism goldens
    // lean on.
    constexpr std::size_t kCount = 100;
    std::vector<std::size_t> order;
    parallelFor(kCount, 1, [&](std::size_t i, std::size_t lane) {
        EXPECT_EQ(lane, 0u);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Engine, ThrowingPointFailsAloneWithoutPoisoningSiblings)
{
    constexpr std::size_t kPoints = 7;
    std::atomic<int> bodiesRun{0};
    const auto statuses = runPoints(kPoints, 3,
                                    [&](std::size_t i, std::size_t) {
        bodiesRun.fetch_add(1);
        if (i == 2)
            throw std::runtime_error("boom at point 2");
    });
    ASSERT_EQ(statuses.size(), kPoints);
    EXPECT_EQ(bodiesRun.load(), static_cast<int>(kPoints));
    for (std::size_t i = 0; i < kPoints; ++i) {
        if (i == 2) {
            EXPECT_FALSE(statuses[i].ok);
            EXPECT_NE(statuses[i].error.find("boom"),
                      std::string::npos);
        } else {
            EXPECT_TRUE(statuses[i].ok) << "point " << i;
            EXPECT_TRUE(statuses[i].error.empty());
        }
    }
}

TEST(Engine, ProgressIsSerializedMonotonicAndComplete)
{
    constexpr std::size_t kPoints = 20;
    std::vector<std::size_t> seen;
    const auto statuses = runPoints(
        kPoints, 4, [](std::size_t, std::size_t) {},
        [&](std::size_t done, std::size_t total) {
            EXPECT_EQ(total, kPoints);
            seen.push_back(done); // serialized: no lock needed
        });
    ASSERT_EQ(seen.size(), kPoints);
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i + 1);
    EXPECT_EQ(statuses.size(), kPoints);
}

TEST(Engine, PoolGaugeAndLanesFollowTheRequest)
{
    // Fewer points than workers: only three lanes start, but the gauge
    // reports the worker count that was asked for.
    MetricsRegistry registry;
    FlightRecorder recorder;
    std::atomic<std::size_t> maxLane{0};
    const auto statuses = runPoints(
        3, 8,
        [&](std::size_t, std::size_t lane) {
            std::size_t cur = maxLane.load();
            while (lane > cur &&
                   !maxLane.compare_exchange_weak(cur, lane)) {
            }
        },
        {}, &registry, &recorder);
    ASSERT_EQ(statuses.size(), 3u);
    for (const PointStatus &status : statuses)
        EXPECT_TRUE(status.ok) << status.error;
    EXPECT_LT(maxLane.load(), 3u);
    EXPECT_EQ(recorder.laneCount(), 8u); // prepareLanes(workers)
    EXPECT_EQ(registry.snapshot().gauges.at("host.pool.threads"), 8.0);

    // 0 means one worker per hardware thread.
    runPoints(3, 0, [](std::size_t, std::size_t) {}, {}, &registry);
    EXPECT_EQ(registry.snapshot().gauges.at("host.pool.threads"),
              static_cast<double>(defaultThreadCount()));
}

TEST(MemoCache, CollidingKeysAliasToTheFirstBuiltValue)
{
    MemoCache<int> cache;
    int builds = 0;
    const auto first = cache.get("fingerprint", [&] {
        ++builds;
        return std::make_shared<const int>(1);
    });
    bool hit = false;
    const auto second = cache.get(
        "fingerprint",
        [&] {
            ++builds;
            return std::make_shared<const int>(2);
        },
        &hit);
    // The cache trusts its key: two distinct artifacts whose
    // fingerprints collide silently alias to whichever built first.
    // That is why configFingerprint/modelFingerprint must encode every
    // result-relevant field (FingerprintsSeparateConfigsAndModels
    // below guards the encoding).
    EXPECT_EQ(builds, 1);
    EXPECT_TRUE(hit);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(*second, 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(MemoCache, ConcurrentInsertsOfTheSameKeyBuildExactlyOnce)
{
    MemoCache<int> cache;
    constexpr int kThreads = 8;
    std::atomic<int> builds{0};
    std::atomic<int> hitCount{0};
    std::vector<std::shared_ptr<const int>> seen(kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                bool hit = false;
                seen[t] = cache.get(
                    "key",
                    [&] {
                        builds.fetch_add(1);
                        // Hold the build long enough that the other
                        // threads arrive while it is in flight and
                        // block on the shared future.
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(2));
                        return std::make_shared<const int>(7);
                    },
                    &hit);
                if (hit)
                    hitCount.fetch_add(1);
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(hitCount.load(), kThreads - 1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(seen[t], nullptr) << "thread " << t;
        EXPECT_EQ(seen[t].get(), seen[0].get());
    }
}

TEST(MemoCache, FailedBuildDropsTheEntrySoRetriesRebuild)
{
    MemoCache<int> cache;
    EXPECT_THROW(cache.get("key",
                           []() -> std::shared_ptr<const int> {
                               throw std::runtime_error("build failed");
                           }),
                 std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.misses(), 1u);

    const auto value =
        cache.get("key", [] { return std::make_shared<const int>(3); });
    EXPECT_EQ(*value, 3);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(MemoCache, RacersOnAFailingBuildAllRethrow)
{
    // Every racer that waits on a failing build rethrows its exception
    // and counts as a hit; the failed entry is gone afterwards, so the
    // next request rebuilds. scripts/check.sh re-runs this under
    // -fsanitize=thread (ctest -L tsan).
    MemoCache<int> cache;
    constexpr int kThreads = 8;
    std::atomic<int> builds{0};
    std::atomic<int> threw{0};
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&] {
                try {
                    cache.get("key", [&]() -> std::shared_ptr<const int> {
                        builds.fetch_add(1);
                        // Hold the build until every other thread waits
                        // on it (the builder runs outside the cache's
                        // lock, so hits() is readable here).
                        const auto deadline =
                            std::chrono::steady_clock::now() +
                            std::chrono::seconds(10);
                        while (cache.hits() <
                                   static_cast<std::uint64_t>(kThreads -
                                                              1) &&
                               std::chrono::steady_clock::now() <
                                   deadline) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(1));
                        }
                        throw std::runtime_error("build failed");
                    });
                } catch (const std::runtime_error &) {
                    threw.fetch_add(1);
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(threw.load(), kThreads);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(cache.size(), 0u);

    const auto value =
        cache.get("key", [] { return std::make_shared<const int>(5); });
    EXPECT_EQ(*value, 5);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(MemoCache, GrowthIsEvictionFreeWithExactAccounting)
{
    MemoCache<std::size_t> cache;
    constexpr std::size_t kKeys = 64;
    std::vector<std::shared_ptr<const std::size_t>> first(kKeys);
    for (std::size_t k = 0; k < kKeys; ++k) {
        first[k] = cache.get("key" + std::to_string(k), [k] {
            return std::make_shared<const std::size_t>(k);
        });
        // Grows by exactly one entry per distinct key, never more.
        EXPECT_EQ(cache.size(), k + 1);
    }
    EXPECT_EQ(cache.misses(), kKeys);
    EXPECT_EQ(cache.hits(), 0u);

    // Nothing is ever evicted: every re-get is a hit on the original
    // shared value, and the builder is never consulted again.
    for (std::size_t k = 0; k < kKeys; ++k) {
        const auto again = cache.get(
            "key" + std::to_string(k),
            []() -> std::shared_ptr<const std::size_t> {
                ADD_FAILURE() << "rebuilt a cached key";
                return nullptr;
            });
        EXPECT_EQ(again.get(), first[k].get());
    }
    EXPECT_EQ(cache.size(), kKeys);
    EXPECT_EQ(cache.hits(), kKeys);
    EXPECT_EQ(cache.misses(), kKeys);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    // Values handed out before clear() stay alive: ownership is
    // shared, not borrowed from the cache.
    EXPECT_EQ(*first[5], 5u);
}

TEST(MemoCache, StressKeepsExactAccountingAcrossThreads)
{
    // Hammer many distinct keys from 8 threads: every key builds
    // exactly once, and hits + misses equal the total number of get()
    // calls. scripts/check.sh re-runs this under -fsanitize=thread
    // (ctest -L tsan).
    MemoCache<std::size_t> cache;
    constexpr int kThreads = 8;
    constexpr std::size_t kKeys = 48;
    constexpr int kRounds = 4;
    std::atomic<int> builds{0};
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&] {
                for (int round = 0; round < kRounds; ++round) {
                    for (std::size_t k = 0; k < kKeys; ++k) {
                        const auto value = cache.get(
                            "key" + std::to_string(k), [&builds, k] {
                                builds.fetch_add(1);
                                return std::make_shared<
                                    const std::size_t>(k);
                            });
                        ASSERT_NE(value, nullptr);
                        EXPECT_EQ(*value, k);
                    }
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    EXPECT_EQ(builds.load(), static_cast<int>(kKeys));
    EXPECT_EQ(cache.size(), kKeys);
    EXPECT_EQ(cache.misses(), kKeys);
    constexpr std::uint64_t kGets =
        static_cast<std::uint64_t>(kThreads) * kRounds * kKeys;
    EXPECT_EQ(cache.hits(), kGets - kKeys);
}

/** Compile (@p model, @p config) through @p cache under the pair's
 *  fingerprint, the way preparePoint does. */
std::shared_ptr<const CompiledGan>
compileCached(CompiledModelCache &cache, const GanModel &model,
              const AcceleratorConfig &config,
              const std::function<CompiledGan(const GanModel &,
                                              const AcceleratorConfig &)>
                  &compile)
{
    return cache.get(pairFingerprint(model, config), [&] {
        return std::make_shared<const CompiledGan>(compile(model, config));
    });
}

TEST(ModelCache, CompilesOnceWithExactCounters)
{
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    const AcceleratorConfig config = smallLerGan();

    CompiledModelCache cache;
    std::atomic<int> compiles{0};
    const auto counting = [&](const GanModel &m,
                              const AcceleratorConfig &c) {
        compiles.fetch_add(1);
        return compileGan(m, c);
    };

    const auto first = compileCached(cache, model, config, counting);
    const auto second = compileCached(cache, model, config, counting);
    EXPECT_EQ(compiles.load(), 1);
    EXPECT_EQ(first.get(), second.get()); // same shared mapping
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // A different configuration is a different entry.
    compileCached(cache, model, smallPrime(), counting);
    EXPECT_EQ(compiles.load(), 2);
    EXPECT_EQ(cache.size(), 2u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(ModelCache, FailedCompileRethrowsAndRetries)
{
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    const AcceleratorConfig config = smallLerGan();

    CompiledModelCache cache;
    int calls = 0;
    const auto failing = [&](const GanModel &,
                             const AcceleratorConfig &) -> CompiledGan {
        ++calls;
        throw std::runtime_error("no mapping");
    };
    EXPECT_THROW(compileCached(cache, model, config, failing),
                 std::runtime_error);
    EXPECT_EQ(cache.size(), 0u); // failed entry dropped

    // The pair is retried, not poisoned.
    const auto ok = compileCached(cache, model, config, compileGan);
    EXPECT_NE(ok, nullptr);
    EXPECT_EQ(calls, 1);
}

TEST(ModelCache, FingerprintsSeparateConfigsAndModels)
{
    const AcceleratorConfig base = smallLerGan();
    AcceleratorConfig other = base;
    other.batchSize = 8;
    EXPECT_NE(configFingerprint(base), configFingerprint(other));

    AcceleratorConfig device = base;
    device.reram.adcPjPerXbar *= 2;
    EXPECT_NE(configFingerprint(base), configFingerprint(device));

    EXPECT_EQ(configFingerprint(base),
              configFingerprint(AcceleratorConfig(base)));
    EXPECT_NE(modelFingerprint(makeBenchmark("MAGAN-MNIST")),
              modelFingerprint(makeBenchmark("cGAN")));
    EXPECT_EQ(modelFingerprint(makeBenchmark("DCGAN")),
              modelFingerprint(makeBenchmark("DCGAN")));
}

TEST(Session, CompilesExactlyOnceAcrossRepeatedRuns)
{
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    SimulationSession session(smallLerGan());

    const TrainingReport first = session.run(model);
    EXPECT_EQ(session.cacheMisses(), 1u);
    EXPECT_EQ(session.cacheHits(), 0u);

    const TrainingReport second = session.run(model);
    const TrainingReport third = session.run(model, 3);
    EXPECT_EQ(session.cacheMisses(), 1u);
    EXPECT_EQ(session.cacheHits(), 2u);

    // Cached and fresh compiles simulate identically.
    EXPECT_EQ(first.iterationTime, second.iterationTime);
    EXPECT_EQ(first.iterationTime, third.iterationTime);
    EXPECT_DOUBLE_EQ(first.totalEnergyPj(), second.totalEnergyPj());
}

TEST(Session, MatchesAOnePointSweep)
{
    const GanModel model = makeBenchmark("cGAN");
    const AcceleratorConfig config = smallPrime();
    SimulationSession session(config);
    session.auditWith(AuditOptions::full())
        .withCriticalPath()
        .withTelemetry()
        .withTracing();
    ExperimentSweep sweep;
    sweep.addBenchmark(model)
        .addConfig("prime", config)
        .auditWith(AuditOptions::full())
        .withCriticalPath()
        .withTelemetry()
        .withTracing();

    const TrainingReport viaSession = session.run(model, 2);
    RunOptions options;
    options.iterations = 2;
    const std::vector<SweepResult> results = sweep.run(options);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_FALSE(results[0].failed) << results[0].error;
    const TrainingReport &viaSweep = results[0].report;

    EXPECT_EQ(viaSession.iterationTime, viaSweep.iterationTime);
    EXPECT_EQ(viaSession.crossbarsUsed, viaSweep.crossbarsUsed);
    EXPECT_EQ(std::vector(viaSession.stats.begin(), viaSession.stats.end()),
              std::vector(viaSweep.stats.begin(), viaSweep.stats.end()));
    ASSERT_TRUE(viaSession.critpath && viaSweep.critpath);
    const std::vector<CritEntry> &a = viaSession.critpath->path.entries;
    const std::vector<CritEntry> &b = viaSweep.critpath->path.entries;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].task, b[i].task) << i;
        EXPECT_EQ(a[i].start, b[i].start) << i;
        EXPECT_EQ(a[i].duration, b[i].duration) << i;
    }
    EXPECT_EQ(session.audit(model, 2).checksRun,
              results[0].audit.checksRun);

    // The session's template cache lowered the pair once (the audit()
    // above already replayed it); another run replays it again.
    EXPECT_EQ(session.templates().misses(), 1u);
    const std::uint64_t hits = session.templates().hits();
    session.run(model, 2);
    EXPECT_EQ(session.templates().misses(), 1u);
    EXPECT_EQ(session.templates().hits(), hits + 1);
}

TEST(Session, FewerThanOneIterationThrowsInvalidArgument)
{
    SimulationSession session(smallLerGan());
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    EXPECT_THROW(session.run(model, 0), std::invalid_argument);
    EXPECT_THROW(session.audit(model, -1), std::invalid_argument);
    // Rejected before compiling anything.
    EXPECT_EQ(session.cacheMisses(), 0u);
}

TEST(Session, UnusableConfigThrowsInvalidArgument)
{
    AcceleratorConfig config = smallLerGan();
    config.batchSize = 0;
    SimulationSession session(config);
    EXPECT_THROW(session.run(makeBenchmark("MAGAN-MNIST")),
                 std::invalid_argument);
}

TEST(Session, SharedCacheServesSeveralSessions)
{
    auto cache = std::make_shared<CompiledModelCache>();
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    SimulationSession a(smallLerGan(), cache);
    SimulationSession b(smallLerGan(), cache);
    a.run(model);
    b.run(model);
    EXPECT_EQ(cache->misses(), 1u);
    EXPECT_EQ(cache->hits(), 1u);
}

TEST(SweepExec, CacheHitCountIsExactForTheBenchmarkMajorGrid)
{
    const ExperimentSweep sweep = smallSweep();
    EXPECT_EQ(sweep.pointCount(), 4u);

    sweep.run(1);
    EXPECT_EQ(sweep.cache().misses(), 4u); // every pair compiled once
    EXPECT_EQ(sweep.cache().hits(), 0u);

    sweep.run(1); // the repeat recompiles nothing
    EXPECT_EQ(sweep.cache().misses(), 4u);
    EXPECT_EQ(sweep.cache().hits(), 4u);
}

TEST(SweepExec, ParallelRunIsByteIdenticalToSequential)
{
    const ExperimentSweep sweep = smallSweep();
    RunOptions sequential;
    sequential.threads = 1;
    sequential.iterations = 2;
    RunOptions parallel;
    parallel.threads = 4;
    parallel.iterations = 2;

    const auto seqResults = sweep.run(sequential);
    const auto parResults = sweep.run(parallel);
    ASSERT_EQ(seqResults.size(), parResults.size());

    std::ostringstream seqJson, parJson, seqCsv, parCsv;
    writeSweepJson(seqJson, seqResults);
    writeSweepJson(parJson, parResults);
    EXPECT_EQ(seqJson.str(), parJson.str());
    writeSweepCsv(seqCsv, seqResults);
    writeSweepCsv(parCsv, parResults);
    EXPECT_EQ(seqCsv.str(), parCsv.str());
}

TEST(SweepExec, ResultsStayBenchmarkMajorUnderParallelism)
{
    RunOptions options;
    options.threads = 4;
    const auto results = smallSweep().run(options);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].benchmark, "MAGAN-MNIST");
    EXPECT_EQ(results[0].configLabel, "lergan");
    EXPECT_EQ(results[1].benchmark, "MAGAN-MNIST");
    EXPECT_EQ(results[1].configLabel, "prime");
    EXPECT_EQ(results[2].benchmark, "cGAN");
    EXPECT_EQ(results[2].configLabel, "lergan");
    EXPECT_EQ(results[3].benchmark, "cGAN");
    EXPECT_EQ(results[3].configLabel, "prime");
}

TEST(SweepExec, SaturatedPoolKeepsBenchmarkMajorOrderAndBytes)
{
    // Oversubscribe the pool (8 workers, 4 grid points): chunked
    // claiming and per-lane arenas must still land every result in its
    // benchmark-major slot and export byte-identically to the 1-worker
    // run.
    const ExperimentSweep sweep = smallSweep();
    RunOptions sequential;
    sequential.threads = 1;
    sequential.iterations = 2;
    RunOptions saturated;
    saturated.threads = 8;
    saturated.iterations = 2;

    const auto seqResults = sweep.run(sequential);
    const auto satResults = sweep.run(saturated);
    ASSERT_EQ(satResults.size(), 4u);
    EXPECT_EQ(satResults[0].benchmark, "MAGAN-MNIST");
    EXPECT_EQ(satResults[0].configLabel, "lergan");
    EXPECT_EQ(satResults[1].benchmark, "MAGAN-MNIST");
    EXPECT_EQ(satResults[1].configLabel, "prime");
    EXPECT_EQ(satResults[2].benchmark, "cGAN");
    EXPECT_EQ(satResults[2].configLabel, "lergan");
    EXPECT_EQ(satResults[3].benchmark, "cGAN");
    EXPECT_EQ(satResults[3].configLabel, "prime");

    std::ostringstream seqJson, satJson;
    writeSweepJson(seqJson, seqResults);
    writeSweepJson(satJson, satResults);
    EXPECT_EQ(seqJson.str(), satJson.str());
}

TEST(SweepExec, ThrowingPointFailsWithoutPoisoningSiblings)
{
    AcceleratorConfig bad = smallLerGan();
    bad.batchSize = 0; // checkUsable throws at the point boundary

    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addConfig("good", smallLerGan())
        .addConfig("bad", bad)
        .addConfig("prime", smallPrime());
    RunOptions options;
    options.threads = 2;
    const auto results = sweep.run(options);
    ASSERT_EQ(results.size(), 3u);

    EXPECT_FALSE(results[0].failed);
    EXPECT_GT(results[0].report.iterationTime, 0u);
    EXPECT_TRUE(results[1].failed);
    EXPECT_EQ(results[1].benchmark, "MAGAN-MNIST");
    EXPECT_EQ(results[1].configLabel, "bad");
    EXPECT_NE(results[1].error.find("batchSize"), std::string::npos);
    EXPECT_FALSE(results[2].failed);
    EXPECT_GT(results[2].report.iterationTime, 0u);

    // Exports keep the failed point identifiable.
    std::ostringstream json;
    writeSweepJson(json, results);
    EXPECT_NE(json.str().find("\"failed\":true"), std::string::npos);
    EXPECT_NE(json.str().find("batchSize"), std::string::npos);
}

TEST(SweepExec, ExplicitPointsRunAfterTheGrid)
{
    AcceleratorConfig custom = smallLerGan();
    custom.cuPairs = 2;

    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addConfig("lergan", smallLerGan())
        .addPoint(makeBenchmark("cGAN"), "custom", custom);
    EXPECT_EQ(sweep.pointCount(), 2u);

    const auto results = sweep.run(1);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].benchmark, "MAGAN-MNIST");
    EXPECT_EQ(results[1].benchmark, "cGAN");
    EXPECT_EQ(results[1].configLabel, "custom");
    EXPECT_FALSE(results[1].failed);
    EXPECT_GT(results[1].report.iterationTime, 0u);
}

TEST(SweepExec, ProgressCallbackCountsEveryPoint)
{
    RunOptions options;
    options.threads = 3;
    std::vector<std::size_t> seen;
    options.onProgress = [&](std::size_t done, std::size_t total) {
        EXPECT_EQ(total, 4u);
        seen.push_back(done);
    };
    smallSweep().run(options);
    ASSERT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen.back(), 4u);
}

TEST(SweepExec, BadRunOptionsThrowInvalidArgumentBeforeAnyPoint)
{
    const ExperimentSweep sweep = smallSweep();
    RunOptions no_iterations;
    no_iterations.iterations = 0;
    EXPECT_THROW(sweep.run(no_iterations), std::invalid_argument);
    RunOptions negative_threads;
    negative_threads.threads = -1;
    EXPECT_THROW(sweep.run(negative_threads), std::invalid_argument);
    // No point ran: nothing was compiled.
    EXPECT_EQ(sweep.cache().misses(), 0u);
}

} // namespace
} // namespace lergan
