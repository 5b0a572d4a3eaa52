/**
 * @file
 * Host-performance benchmark driver.
 *
 * Runs one of three workloads (native, cross_isa, fleet) against the
 * simulator's public API and prints one JSON object of raw
 * measurements: every set-up and every measured pass, each with its
 * host time, the host time of every public call made into a module,
 * the simulated counts read at the same boundaries, and one record per
 * operation (host time, output check, hash of its simulated results).
 * perfbench/run.py turns that into the benchmark's metrics.
 *
 *   xisa_perfbench --workload W --seed N --seconds S --trace 0|1
 *                  --confs DIR [--spans FILE]
 *
 * Set-up runs at least three times, and more while the set-ups so far
 * took under a second (the last one's inputs are kept). Passes repeat
 * until S seconds of passes have run and at least enough operations
 * were timed for a p90 with ten samples beyond it. With --trace 1 the
 * passes alternate untraced and traced; traced passes (and every
 * set-up) record one span per public call, kept in memory and written
 * to FILE at exit. Before every timed call a host-speed probe runs
 * outside the timers (see probe()).
 *
 * The driver never arms the simulator's own tracer (XISA_TRACE): it
 * would force the sweep driver to one worker.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compile.hh"
#include "core/migprofile.hh"
#include "emu/dbt.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/sweep.hh"
#include "machine/interp_threaded.hh"
#include "os/os.hh"
#include "sched/cluster.hh"
#include "sched/jobsets.hh"
#include "sched/profile.hh"
#include "traffic/traffic.hh"
#include "util/rng.hh"
#include "workload/workloads.hh"

using namespace xisa;

namespace {

const double kStart = std::chrono::duration<double>(
                          std::chrono::steady_clock::now()
                              .time_since_epoch())
                          .count();

/** Host seconds since the driver started. */
double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count() -
           kStart;
}

// --- Spans ------------------------------------------------------------

struct SpanRec {
    const char *name;
    double start;
    double end;
    int64_t id;
    int64_t parent;
    int64_t op;
};

/** Spans of the traced regions, in memory until exit. */
struct SpanLog {
    std::atomic<bool> on{false};
    std::atomic<int64_t> nextId{0};
    std::mutex mu;
    std::vector<SpanRec> spans; ///< guarded by mu
};

SpanLog gSpans;
thread_local int64_t tParent = -1;
thread_local int64_t tOp = -1;

/** Makes `parent` the enclosing span and `op` the operation of every
 *  span opened on this thread while alive (sweep workers do not
 *  inherit the caller's context). */
class SpanContext
{
  public:
    SpanContext(int64_t parent, int64_t op)
        : savedParent_(tParent), savedOp_(tOp)
    {
        tParent = parent;
        tOp = op;
    }
    ~SpanContext()
    {
        tParent = savedParent_;
        tOp = savedOp_;
    }
    SpanContext(const SpanContext &) = delete;
    SpanContext &operator=(const SpanContext &) = delete;

  private:
    int64_t savedParent_;
    int64_t savedOp_;
};

// --- Per-region accounting -------------------------------------------

/** Host time of the public calls and the simulated counts of one
 *  set-up or one pass. */
struct Region {
    std::mutex mu;
    std::map<std::string, double> calls;  ///< guarded by mu
    std::map<std::string, double> counts; ///< guarded by mu
    std::vector<double> probeWalks;       ///< guarded by mu
    double probeSeconds = 0;              ///< guarded by mu

    void
    count(const std::string &name, double v)
    {
        std::lock_guard<std::mutex> g(mu);
        counts[name] += v;
    }
};

// --- Host-speed probe --------------------------------------------------

std::atomic<uint64_t> gProbeSink{0};

/**
 * Host seconds of a fixed random walk through a 4 MiB table (25k
 * dependent loads, the same ones every time), after one sequential
 * read of the table.
 */
double
probeWalk()
{
    constexpr uint32_t kEntries = 1u << 20;
    static const std::vector<uint32_t> table = [] {
        std::vector<uint32_t> t(kEntries);
        for (uint32_t i = 0; i < kEntries; ++i)
            t[i] = static_cast<uint32_t>((i * 2654435761ull) % kEntries);
        return t;
    }();
    uint64_t sum = 0;
    for (uint32_t i = 0; i < kEntries; i += 16)
        sum += table[i];
    const double start = now();
    uint32_t j = 0;
    for (uint32_t i = 0; i < 25000; ++i) {
        j = (table[j] + i) & (kEntries - 1);
        sum += j;
    }
    const double walk = now() - start;
    gProbeSink.store(sum, std::memory_order_relaxed);
    return walk;
}

/**
 * Samples the host's speed: the simulator runs up to 2x slower while
 * the host's other tenants load the core and its caches, and the walk
 * slows with it. Only the second of two walks is kept: the first
 * brings the table back into the caches, so the sample does not depend
 * on what the simulator left there and no change to the program can
 * move it. run.py scales the
 * end-to-end times by it. Runs outside every timer but the region's
 * own, which subtracts it; traced as `probe.walk`.
 */
void
probe(Region &region)
{
    const double start = now();
    probeWalk();
    const double walk = probeWalk();
    const double end = now();
    {
        std::lock_guard<std::mutex> g(region.mu);
        region.probeWalks.push_back(walk);
        region.probeSeconds += end - start;
    }
    if (gSpans.on.load(std::memory_order_relaxed)) {
        const int64_t id = gSpans.nextId.fetch_add(1);
        std::lock_guard<std::mutex> g(gSpans.mu);
        gSpans.spans.push_back({"probe.walk", start, end, id, tParent, tOp});
    }
}

/**
 * Times one public call into a module: adds its host seconds to the
 * region under `name` and, while spans are on, records a span of that
 * name. `name` is `<layer>.<call>` and must be a string literal. A call
 * that does its own work (`leaf`) probes the host just before it.
 */
class Call
{
  public:
    Call(Region &region, const char *name, bool leaf = true)
        : region_(region), name_(name), parent_(tParent)
    {
        if (leaf)
            probe(region);
        if (gSpans.on.load(std::memory_order_relaxed)) {
            id_ = gSpans.nextId.fetch_add(1);
            tParent = id_;
        }
        start_ = now();
    }
    ~Call() { stop(); }
    Call(const Call &) = delete;
    Call &operator=(const Call &) = delete;

    /** Ends the call (idempotent); returns its host seconds. */
    double
    stop()
    {
        if (done_)
            return end_ - start_;
        done_ = true;
        end_ = now();
        {
            std::lock_guard<std::mutex> g(region_.mu);
            region_.calls[name_] += end_ - start_;
        }
        if (id_ >= 0) {
            tParent = parent_;
            std::lock_guard<std::mutex> g(gSpans.mu);
            gSpans.spans.push_back(
                {name_, start_, end_, id_, parent_, tOp});
        }
        return end_ - start_;
    }

    int64_t id() const { return id_; }

  private:
    Region &region_;
    const char *name_;
    int64_t parent_;
    int64_t id_ = -1;
    double start_ = 0;
    double end_ = 0;
    bool done_ = false;
};

// --- Operation records -------------------------------------------------

/** FNV-1a over the exact bytes of simulated results. */
class SimHash
{
  public:
    SimHash &
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
        return *this;
    }
    SimHash &
    add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        return add(bits);
    }
    SimHash &
    add(const std::string &s)
    {
        add(static_cast<uint64_t>(s.size()));
        for (char c : s)
            byte(static_cast<uint8_t>(c));
        return *this;
    }
    SimHash &
    add(const std::vector<std::string> &lines)
    {
        add(static_cast<uint64_t>(lines.size()));
        for (const std::string &l : lines)
            add(l);
        return *this;
    }
    uint64_t value() const { return h_; }

  private:
    void
    byte(uint8_t b)
    {
        h_ ^= b;
        h_ *= 0x100000001b3ull;
    }
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** One timed operation of a pass. */
struct OpRecord {
    std::string key;   ///< stable name, e.g. "cg.A.t4.inst.xeno"
    double ms = 0;     ///< host milliseconds
    std::string error; ///< empty when the output check passed
    uint64_t sim = 0;  ///< SimHash of the simulated results
};

/** Output check shared by every container run. */
std::string
checkRun(const OsRunResult &r, const std::vector<std::string> *expected)
{
    if (!r.finished)
        return "did not finish";
    if (r.exitCode != 0)
        return "exit code " + std::to_string(r.exitCode);
    if (r.output.empty())
        return "no output";
    if (expected && r.output != *expected)
        return "output differs from the native single-node run";
    return {};
}

uint64_t
simHashOf(const OsRunResult &r)
{
    SimHash h;
    h.add(static_cast<uint64_t>(r.finished))
        .add(static_cast<uint64_t>(r.exitCode))
        .add(r.totalInstrs)
        .add(r.makespanSeconds)
        .add(r.output);
    return h.value();
}

/** Sum of every registry counter whose name ends in `suffix`. */
double
sumSuffix(const std::map<std::string, double> &snap, const char *suffix)
{
    const size_t n = std::strlen(suffix);
    double total = 0;
    for (const auto &[name, v] : snap)
        if (name.size() >= n &&
            name.compare(name.size() - n, n, suffix) == 0)
            total += v;
    return total;
}

double
statOf(const std::map<std::string, double> &snap, const std::string &name)
{
    auto it = snap.find(name);
    return it == snap.end() ? 0.0 : it->second;
}

/** Fresh operation id for the spans of a sequential operation. */
int64_t
newOp()
{
    return gSpans.nextId.fetch_add(1);
}

/**
 * Runs `fn(i)` for i in [0, n) through the simulator's sweep driver
 * under one `exp.sweep` call. Each call gets its own operation id and
 * sees the sweep span as its parent, whichever worker runs it.
 */
template <typename Fn>
auto
sweep(Region &region, size_t n, Fn fn)
{
    Call call(region, "exp.sweep", false);
    const int64_t parent = call.id();
    auto results = exp::runSweep(n, [&](size_t i) {
        SpanContext ctx(parent, newOp());
        return fn(i);
    });
    call.stop();
    return results;
}

// --- Workloads ---------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build every input of the measured phase from scratch. */
    virtual void setup(Region &r) = 0;
    /** Untimed reference runs the output checks compare against. */
    virtual void reference() {}
    /** One measured pass; appends one record per operation. */
    virtual void pass(Region &r, std::vector<OpRecord> &ops) = 0;
    /** Operations one pass times. */
    virtual size_t opsPerPass() const = 0;
};

const char *
isaTag(IsaId isa)
{
    return isa == IsaId::Xeno64 ? "xeno" : "aether";
}

NodeSpec
serverFor(IsaId isa)
{
    return isa == IsaId::Xeno64 ? makeXenoServer() : makeAetherServer();
}

// native: the shape of Figs. 6-9 and Table 1 -----------------------------

/**
 * Seven NPB-like kernels x both ISAs x classes A/B x 1/4 threads x
 * {uninstrumented, instrumented}: 112 single-node container runs
 * through the sweep driver, one ExecCache per binary per pass (so
 * first-decode and cache fill are paid every pass, as every user run
 * pays them), profiling off, no migration. The seed only orders the
 * cells.
 */
class NativeWorkload : public Workload
{
  public:
    explicit NativeWorkload(uint64_t seed) : rng_(seed) {}

    void
    setup(Region &r) override
    {
        modules_.clear();
        for (WorkloadId wl :
             {WorkloadId::CG, WorkloadId::IS, WorkloadId::FT,
              WorkloadId::SP, WorkloadId::BT, WorkloadId::EP,
              WorkloadId::MG})
            for (ProblemClass cls : {ProblemClass::A, ProblemClass::B})
                for (int threads : {1, 4}) {
                    SpanContext ctx(tParent, newOp());
                    auto m = std::make_unique<Mod>();
                    m->name = std::string(workloadName(wl)) + "." +
                              className(cls) + ".t" +
                              std::to_string(threads);
                    Module mod;
                    {
                        Call c(r, "workload.build");
                        mod = buildWorkload(wl, cls, threads);
                    }
                    CompileOptions plain;
                    plain.boundaryMigPoints = false;
                    {
                        Call c(r, "compiler.compile");
                        m->bin[0] = compileModule(mod, plain);
                    }
                    {
                        Call c(r, "compiler.compile");
                        m->bin[1] = compileModule(std::move(mod));
                    }
                    r.count("compiler.binaries", 2);
                    modules_.push_back(std::move(m));
                }
        cells_.clear();
        for (size_t m = 0; m < modules_.size(); ++m)
            for (int variant : {0, 1})
                for (IsaId isa : {IsaId::Xeno64, IsaId::Aether64})
                    cells_.push_back({m, variant, isa});
    }

    void
    pass(Region &r, std::vector<OpRecord> &ops) override
    {
        std::vector<Cell> order = cells_;
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng_.below(i)]);

        // Fresh caches: decode and superblock lowering are part of
        // what every run of a binary costs.
        std::vector<std::shared_ptr<ExecCache>> caches;
        for (size_t k = 0; k < 2 * modules_.size(); ++k)
            caches.push_back(std::make_shared<ExecCache>());

        struct Out {
            OpRecord op;
            std::vector<std::string> output;
            uint64_t instrs = 0;
            double l1dAccesses = 0, l1dMisses = 0;
        };
        std::vector<Out> outs = sweep(r, order.size(), [&](size_t i) {
            const Cell &c = order[i];
            const Mod &m = *modules_[c.module];
            Out o;
            o.op.key = m.name + (c.variant ? ".inst." : ".base.") +
                       isaTag(c.isa);
            OsConfig cfg;
            cfg.nodes = {serverFor(c.isa)};
            cfg.execCache = caches[2 * c.module + c.variant];
            Call call(r, "machine.exec");
            OsRunResult res;
            {
                ReplicatedOS os(m.bin[c.variant], cfg);
                os.load(0);
                res = os.run();
                auto snap = os.statRegistry().snapshot();
                o.l1dAccesses = sumSuffix(snap, ".l1d.accesses");
                o.l1dMisses = sumSuffix(snap, ".l1d.misses");
            }
            o.op.ms = call.stop() * 1e3;
            o.op.error = checkRun(res, nullptr);
            o.op.sim = simHashOf(res);
            o.instrs = res.totalInstrs;
            o.output = std::move(res.output);
            return o;
        });

        // Each module prints the same lines on both ISAs, with and
        // without migration points: compare against its uninstrumented
        // x86 run.
        std::map<std::string, const std::vector<std::string> *> ref;
        for (size_t i = 0; i < order.size(); ++i)
            if (order[i].variant == 0 && order[i].isa == IsaId::Xeno64)
                ref[modules_[order[i].module]->name] = &outs[i].output;
        for (size_t i = 0; i < order.size(); ++i) {
            Out &o = outs[i];
            if (o.op.error.empty() &&
                o.output != *ref[modules_[order[i].module]->name])
                o.op.error = "output differs across ISA or variant";
            r.count("machine.instrs", static_cast<double>(o.instrs));
            r.count("machine.l1d_accesses", o.l1dAccesses);
            r.count("machine.l1d_misses", o.l1dMisses);
            ops.push_back(std::move(o.op));
        }
    }

    size_t opsPerPass() const override { return cells_.size(); }

  private:
    struct Mod {
        std::string name;
        MultiIsaBinary bin[2]; ///< [0] uninstrumented, [1] instrumented
    };
    struct Cell {
        size_t module;
        int variant;
        IsaId isa;
    };
    Rng rng_;
    std::vector<std::unique_ptr<Mod>> modules_;
    std::vector<Cell> cells_;
};

// cross_isa: both ways to run code on the other ISA ----------------------

/** The three ways a cross_isa pass moves running code between the two
 *  kernels of the dual-server container. */
enum class Leg { PingPong, Threads, Remote };

const char *
legName(Leg leg)
{
    switch (leg) {
      case Leg::PingPong: return "pingpong";
      case Leg::Threads: return "threads";
      case Leg::Remote: return "remote";
    }
    return "?";
}

/**
 * Kernels cg, ep, ft, is, sp at class A. Set-up plans loop migration
 * points (gap target 20k, as in Fig. 10) for a serial and a 4-thread
 * build and compiles both. A pass emulates each serial binary under
 * DBT in both directions, then runs it on the dual server with a
 * seeded migration schedule in three legs: whole-process ping-pong
 * (MigratePages), per-thread moves of the 4-thread build, and the
 * ping-pong again in RemoteAccess mode.
 */
class CrossIsaWorkload : public Workload
{
  public:
    /** Scheduler time slice of the migrating legs, in instructions. */
    static constexpr uint64_t kQuantum = 2000;
    /** One migration request per this many quanta, on average. */
    static constexpr uint64_t kRequestEvery = 4;

    explicit CrossIsaWorkload(uint64_t seed) : seed_(seed) {}

    void
    setup(Region &r) override
    {
        kernels_.clear();
        for (WorkloadId wl : {WorkloadId::CG, WorkloadId::EP,
                              WorkloadId::FT, WorkloadId::IS,
                              WorkloadId::SP}) {
            auto k = std::make_unique<Kernel>();
            k->wl = wl;
            k->bin[0] = planAndCompile(r, wl, 1);
            k->bin[1] = planAndCompile(r, wl, 4);
            kernels_.push_back(std::move(k));
        }
    }

    void
    reference() override
    {
        for (auto &k : kernels_) {
            for (int b : {0, 1}) {
                OsRunResult res = exp::runSingleNode(
                    k->bin[b], serverFor(IsaId::Xeno64));
                k->refOutput[b] = res.output;
                if (b == 0)
                    k->refInstrs[0] = res.totalInstrs;
            }
            k->refInstrs[1] = exp::runSingleNode(
                                  k->bin[0], serverFor(IsaId::Aether64))
                                  .totalInstrs;
        }
    }

    void
    pass(Region &r, std::vector<OpRecord> &ops) override
    {
        for (size_t ki = 0; ki < kernels_.size(); ++ki) {
            const Kernel &k = *kernels_[ki];
            for (IsaId guest : {IsaId::Aether64, IsaId::Xeno64})
                ops.push_back(emulateOp(r, k, guest));
            for (Leg leg : {Leg::PingPong, Leg::Threads, Leg::Remote})
                ops.push_back(legOp(r, k, ki, leg));
        }
    }

    size_t opsPerPass() const override { return kernels_.size() * 5; }

  private:
    struct Kernel {
        WorkloadId wl = WorkloadId::CG;
        MultiIsaBinary bin[2]; ///< [0] serial, [1] 4-thread
        std::vector<std::string> refOutput[2];
        uint64_t refInstrs[2] = {0, 0}; ///< serial build: xeno, aether
    };

    static MultiIsaBinary
    planAndCompile(Region &r, WorkloadId wl, int threads)
    {
        SpanContext ctx(tParent, newOp());
        Module mod;
        {
            Call c(r, "workload.build");
            mod = buildWorkload(wl, ProblemClass::A, threads);
        }
        CompileOptions opts;
        {
            Call c(r, "core.plan");
            MigPointPlan plan = planMigrationPoints(mod, 20000);
            c.stop();
            r.count("core.plan_iterations", plan.iterations);
            // The planner reports its first and final profiling runs.
            r.count("core.profiled_instrs",
                    static_cast<double>(
                        plan.before.totalInstrs +
                        (plan.iterations > 0 ? plan.after.totalInstrs
                                             : 0)));
            opts.loopMigPoints = std::move(plan.points);
        }
        Call c(r, "compiler.compile");
        r.count("compiler.binaries", 1);
        return compileModule(std::move(mod), opts);
    }

    static OpRecord
    emulateOp(Region &r, const Kernel &k, IsaId guest)
    {
        SpanContext ctx(tParent, newOp());
        const IsaId host =
            guest == IsaId::Xeno64 ? IsaId::Aether64 : IsaId::Xeno64;
        OpRecord op;
        op.key = std::string("emulate.") + workloadName(k.wl) + "." +
                 isaTag(guest) + "_on_" + isaTag(host);
        Call call(r, "emu.emulate");
        EmulationResult e =
            emulate(k.bin[0], guest, serverFor(host), serverFor(guest));
        op.ms = call.stop() * 1e3;
        // emulate() reports no output lines; the emulated run must
        // execute exactly the instructions of the native run.
        const uint64_t want = k.refInstrs[guest == IsaId::Xeno64 ? 0 : 1];
        if (e.guestInstrs != want)
            op.error = "emulated " + std::to_string(e.guestInstrs) +
                       " guest instructions, native ran " +
                       std::to_string(want);
        r.count("emu.guest_instrs", static_cast<double>(e.guestInstrs));
        SimHash h;
        h.add(e.guestInstrs)
            .add(e.hostCycles)
            .add(e.translationCycles)
            .add(e.staticInstrsTranslated)
            .add(e.emulatedSeconds)
            .add(e.nativeSeconds);
        op.sim = h.value();
        return op;
    }

    OpRecord
    legOp(Region &r, const Kernel &k, size_t ki, Leg leg) const
    {
        SpanContext ctx(tParent, newOp());
        const int b = leg == Leg::Threads ? 1 : 0;
        OpRecord op;
        op.key = std::string("migrate.") + workloadName(k.wl) + "." +
                 legName(leg);
        OsConfig cfg = OsConfig::dualServer();
        cfg.quantum = kQuantum;
        if (leg == Leg::Remote)
            cfg.dsmMode = DsmMode::RemoteAccess;
        // The schedule is a function of (seed, kernel, leg) only, so
        // every pass replays it exactly.
        Rng rng(traffic::mix64(seed_ ^ (ki * 16 + static_cast<int>(leg))));
        OsRunResult res;
        std::map<std::string, double> snap;
        double hostTransform = 0;
        Call call(r, "os.run");
        {
            ReplicatedOS os(k.bin[b], cfg);
            os.load(0);
            os.onQuantum = [&rng, leg](ReplicatedOS &self) {
                if (rng.below(kRequestEvery) != 0)
                    return;
                if (leg == Leg::Threads) {
                    int tid = static_cast<int>(rng.below(
                        static_cast<uint64_t>(self.numThreads())));
                    self.migrateThread(tid, 1 - self.threadNode(tid));
                } else {
                    self.migrateProcess(1 - self.threadNode(0));
                }
            };
            res = os.run();
            snap = os.statRegistry().snapshot();
            for (const MigrationEvent &ev : os.migrations())
                hostTransform += ev.transform.hostSeconds;
        }
        op.ms = call.stop() * 1e3;
        op.error = checkRun(res, &k.refOutput[b]);

        const std::string tag = legName(leg);
        auto dsmStat = [&](const char *name) {
            return statOf(snap, std::string("dsm.") + name);
        };
        const double migrations = statOf(snap, "os.migrations");
        r.count("os.quanta", statOf(snap, "os.quanta"));
        r.count("os.migrations", migrations);
        r.count("sched.migrate_requests",
                statOf(snap, "sched.migrate_requests"));
        r.count("os.spurious_migrate_traps",
                statOf(snap, "os.spurious_migrate_traps"));
        r.count("core.transforms",
                statOf(snap, "stacktransform.transforms"));
        r.count("core.frames", statOf(snap, "stacktransform.frames"));
        r.count("core.bytes_copied",
                statOf(snap, "stacktransform.bytes_copied"));
        r.count("core.transform_host_s", hostTransform);
        r.count("os.instrs", static_cast<double>(res.totalInstrs));
        for (const char *name :
             {"page_transfers", "bytes_transferred", "read_faults",
              "write_faults", "invalidations"})
            r.count("dsm." + tag + "." + name, dsmStat(name));
        r.count("dsm." + tag + ".migrations", migrations);
        r.count("net." + tag + ".messages", statOf(snap, "net.messages"));
        r.count("net." + tag + ".bytes", statOf(snap, "net.bytes"));

        SimHash h;
        h.add(simHashOf(res))
            .add(migrations)
            .add(dsmStat("page_transfers"))
            .add(dsmStat("invalidations"))
            .add(dsmStat("read_faults"))
            .add(dsmStat("write_faults"))
            .add(statOf(snap, "net.messages"));
        op.sim = h.value();
        return op;
    }

    uint64_t seed_;
    std::vector<std::unique_ptr<Kernel>> kernels_;
};

// fleet: rack/fleet-scale scheduling and serving -------------------------

/**
 * Set-up calibrates the scheduler's job profiles and the serving
 * costs. A pass parses the three fleet confs, runs ClusterSim on
 * fleet_rows.conf's two 1000-machine pools over seeded job sets, and
 * replays seeded request streams through ServingSim for
 * fleet_rack_outage.conf (ToR outage, failover, shedding) and
 * serving_slo.conf (live shard migration, static and migrating).
 */
class FleetWorkload : public Workload
{
  public:
    /** Seeded job sets per pool per pass. */
    static constexpr int kJobSets = 8;
    /** Serving streams run this many times the confs' durations. */
    static constexpr double kServingScale = 4.0;

    FleetWorkload(uint64_t seed, std::string confDir)
        : seed_(seed), confDir_(std::move(confDir))
    {}

    void
    setup(Region &r) override
    {
        {
            Call c(r, "sched.calibrate");
            table_ = std::make_unique<JobProfileTable>(
                JobProfileTable::calibrate());
        }
        Call c(r, "traffic.calibrate");
        serving_ = traffic::ServingProfile::calibrate();
    }

    void
    pass(Region &r, std::vector<OpRecord> &ops) override
    {
        exp::ExperimentSpec rows, outage, slo;
        {
            Call c(r, "exp.parse");
            rows = exp::parseExperimentFile(confDir_ + "/fleet_rows.conf");
            outage = exp::parseExperimentFile(confDir_ +
                                              "/fleet_rack_outage.conf");
            slo = exp::parseExperimentFile(confDir_ + "/serving_slo.conf");
        }
        clusterRuns(r, rows, ops);
        servingRuns(r, outage, "outage", 1, ops);
        servingRuns(r, slo, "slo", 2, ops);
    }

    size_t
    opsPerPass() const override
    {
        // Cluster runs, plus per serving conf one stream and its
        // scenarios (outage: static; slo: static and migrate).
        return 2 * kJobSets + 2 + 3;
    }

  private:
    void
    clusterRuns(Region &r, const exp::ExperimentSpec &spec,
                std::vector<OpRecord> &ops)
    {
        const exp::ClusterSpec &cl = spec.cluster;
        const size_t pools = cl.pools.size();
        auto out = sweep(r, kJobSets * pools, [&](size_t i) {
            const exp::PoolSpec &pool = cl.pools[i % pools];
            const uint64_t set = i / pools;
            OpRecord op;
            op.key = "cluster." + pool.name + ".set" + std::to_string(set);
            Call call(r, "sched.run");
            std::vector<Job> jobs = makePeriodicSet(
                traffic::mix64(seed_ * kJobSets + set), spec.waves,
                spec.jobsPerWavePerMachine * spec.poolMachines);
            ClusterResult res;
            std::map<std::string, double> snap;
            {
                ClusterSim sim(cl.makePool(pool), *table_,
                               cl.simConfig());
                res = sim.run(jobs, pool.policy);
                snap = sim.statRegistry().snapshot();
            }
            op.ms = call.stop() * 1e3;
            const double done = statOf(snap, "sched.jobs_completed");
            if (done != static_cast<double>(jobs.size()))
                op.error = "completed " + std::to_string(done) + " of " +
                           std::to_string(jobs.size()) + " jobs";
            else if (!(res.makespan > 0) || !(res.totalEnergy > 0))
                op.error = "empty makespan or energy";
            for (const char *name :
                 {"sched.events", "sched.migrations", "sched.rebalance_ticks",
                  "sched.rebalance_moves_capped"})
                r.count(name, statOf(snap, name));
            SimHash h;
            h.add(res.totalEnergy)
                .add(res.makespan)
                .add(res.edp)
                .add(static_cast<uint64_t>(res.migrations))
                .add(static_cast<uint64_t>(res.crashes))
                .add(static_cast<uint64_t>(res.failovers))
                .add(res.lostWorkSeconds);
            op.sim = h.value();
            return op;
        });
        for (OpRecord &op : out)
            ops.push_back(std::move(op));
    }

    /** One seeded stream for `spec`, replayed under its static
     *  placement and, when it has a migrate plan, with migrations;
     *  built the way xisa_exp builds a serving experiment. */
    void
    servingRuns(Region &r, const exp::ExperimentSpec &spec,
                const char *tag, uint64_t salt,
                std::vector<OpRecord> &ops)
    {
        const exp::TrafficSpec &t = spec.traffic;
        const double duration = t.duration * kServingScale;
        traffic::TrafficConfig tc;
        tc.seed = traffic::mix64(seed_ * 4 + salt);
        tc.clients = t.clients;
        tc.requestHz = t.requestHz;
        tc.durationSeconds = duration;
        tc.zipfSkew = t.zipfSkew;
        tc.keySpace = t.keySpace;
        tc.getFraction = t.getFraction;
        tc.shards = t.shards;

        SpanContext genCtx(tParent, newOp());
        OpRecord gen;
        gen.key = std::string("traffic.") + tag + ".generate";
        std::vector<traffic::Request> reqs;
        {
            Call call(r, "traffic.generate");
            reqs = traffic::generateRequests(tc);
            gen.ms = call.stop() * 1e3;
        }
        if (reqs.empty())
            gen.error = "empty request stream";
        SimHash gh;
        gh.add(static_cast<uint64_t>(reqs.size()));
        for (const traffic::Request &q : reqs)
            gh.add(q.arrival).add(static_cast<uint64_t>(q.key));
        gen.sim = gh.value();
        ops.push_back(std::move(gen));

        traffic::ServingConfig base;
        for (const std::string &ref : spec.singleMachineRefs)
            base.nodes.push_back(spec.cluster.makeNode(ref));
        base.placement = t.placement;
        base.sloUs = t.sloUs;
        for (const exp::CrashSpec &cs : spec.cluster.crashPlan)
            base.crashes.push_back({cs.machine, cs.time * duration,
                                    spec.cluster.crashDownSeconds});
        exp::applyFailures(spec, duration, base);

        std::vector<std::pair<const char *, traffic::ServingConfig>> runs;
        runs.emplace_back("static", base);
        if (!t.migratePlan.empty()) {
            traffic::ServingConfig cfg = base;
            for (const exp::ShardMigrationSpec &m : t.migratePlan)
                cfg.migrations.push_back(
                    {m.shard, m.time * duration, m.node});
            runs.emplace_back("migrate", std::move(cfg));
        }
        for (auto &[scenario, cfg] : runs) {
            SpanContext ctx(tParent, newOp());
            OpRecord op;
            op.key = std::string("serving.") + tag + "." + scenario;
            Call call(r, "traffic.serve");
            traffic::ServingResult res;
            {
                obs::StatRegistry reg;
                traffic::ServingSim sim(cfg, serving_, reg, "serving");
                res = sim.run(reqs);
            }
            op.ms = call.stop() * 1e3;
            if (res.requests != reqs.size())
                op.error = "served " + std::to_string(res.requests) +
                           " of " + std::to_string(reqs.size()) +
                           " requests";
            r.count("traffic.requests", static_cast<double>(res.requests));
            r.count("traffic.shed", static_cast<double>(res.shed));
            r.count("traffic.failovers",
                    static_cast<double>(res.failovers));
            r.count("traffic.migrations",
                    static_cast<double>(res.migrations));
            SimHash h;
            h.add(res.requests)
                .add(res.p50Us)
                .add(res.p99Us)
                .add(res.p999Us)
                .add(res.sloViolations)
                .add(res.violationsDegraded)
                .add(res.shed)
                .add(res.migrations)
                .add(res.failovers);
            op.sim = h.value();
            ops.push_back(std::move(op));
        }
    }

    uint64_t seed_;
    std::string confDir_;
    std::unique_ptr<JobProfileTable> table_;
    traffic::ServingProfile serving_;
};

// --- Output ------------------------------------------------------------

/** JSON string literal of `s` (keys and messages are plain ASCII). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

void
printMap(std::FILE *f, const std::map<std::string, double> &m)
{
    std::fprintf(f, "{");
    const char *sep = "";
    for (const auto &[k, v] : m) {
        std::fprintf(f, "%s%s: %.17g", sep, quoted(k).c_str(), v);
        sep = ", ";
    }
    std::fprintf(f, "}");
}

struct RegionResult {
    bool traced = false;
    int64_t span = -1; ///< root span id when traced
    double wallSeconds = 0;  ///< without the probes
    double probeWalk = 0;    ///< median probe walk, seconds
    std::map<std::string, double> calls;
    std::map<std::string, double> counts;
    std::vector<OpRecord> ops;
};

void
printRegion(std::FILE *f, const RegionResult &r)
{
    std::fprintf(f,
                 "{\"traced\": %s, \"span\": %" PRId64
                 ", \"wall_s\": %.17g, \"probe_s\": %.17g, \"calls\": ",
                 r.traced ? "true" : "false", r.span, r.wallSeconds,
                 r.probeWalk);
    printMap(f, r.calls);
    std::fprintf(f, ", \"counts\": ");
    printMap(f, r.counts);
    std::fprintf(f, ", \"ops\": [");
    for (size_t i = 0; i < r.ops.size(); ++i) {
        const OpRecord &op = r.ops[i];
        std::fprintf(f, "%s[%s, %.17g, %s, \"%016" PRIx64 "\"]",
                     i ? ", " : "", quoted(op.key).c_str(), op.ms,
                     quoted(op.error).c_str(), op.sim);
    }
    std::fprintf(f, "]}");
}

bool
writeSpans(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "[");
    for (size_t i = 0; i < gSpans.spans.size(); ++i) {
        const SpanRec &s = gSpans.spans[i];
        std::fprintf(f,
                     "%s\n[\"%s\", %.9f, %.9f, %" PRId64 ", %" PRId64
                     ", %" PRId64 "]",
                     i ? "," : "", s.name, s.start, s.end, s.id,
                     s.parent, s.op);
    }
    std::fprintf(f, "\n]\n");
    return std::fclose(f) == 0;
}

/** Runs `body` as one region rooted at a span named `root`. */
RegionResult
runRegion(bool traced, const char *root,
          const std::function<void(Region &, std::vector<OpRecord> &)>
              &body)
{
    gSpans.on.store(traced);
    Region region;
    RegionResult out;
    out.traced = traced;
    {
        Call call(region, root, false);
        out.span = call.id();
        body(region, out.ops);
        out.wallSeconds = call.stop() - region.probeSeconds;
    }
    gSpans.on.store(false);
    region.calls.erase(root);
    out.calls = std::move(region.calls);
    out.counts = std::move(region.counts);
    std::vector<double> &w = region.probeWalks;
    if (!w.empty()) {
        std::nth_element(w.begin(), w.begin() + w.size() / 2, w.end());
        out.probeWalk = w[w.size() / 2];
    }
    return out;
}

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0;
    bool trace = false;
    std::string confs;
    std::string spans;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "xisa_perfbench: %s\nusage: xisa_perfbench --workload "
                 "native|cross_isa|fleet --seed N --seconds S --trace 0|1 "
                 "--confs DIR [--spans FILE]\n",
                 why.c_str());
    std::exit(2);
}

bool
parseUnsigned(const char *s, uint64_t *out)
{
    if (!*s)
        return false;
    uint64_t v = 0;
    for (const char *p = s; *p; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        uint64_t d = static_cast<uint64_t>(*p - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    *out = v;
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *v = argv[++i];
        uint64_t n = 0;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            if (!parseUnsigned(v, &a.seed))
                usage(std::string("malformed seed '") + v + "'");
            haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(v, &n) || n < 1 || n > 3600)
                usage(std::string("malformed seconds '") + v + "'");
            a.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage(std::string("--trace takes 0 or 1, not '") + v +
                      "'");
            a.trace = v[0] == '1';
            haveTrace = true;
        } else if (flag == "--confs") {
            a.confs = v;
        } else if (flag == "--spans") {
            a.spans = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload != "native" && a.workload != "cross_isa" &&
        a.workload != "fleet")
        usage("unknown workload '" + a.workload + "'");
    if (!haveSeed || !haveSeconds || !haveTrace || a.confs.empty())
        usage("--seed, --seconds, --trace and --confs are required");
    if (a.trace && a.spans.empty())
        usage("--trace 1 needs --spans");
    return a;
}

int
run(const Args &a)
{
    std::unique_ptr<Workload> w;
    if (a.workload == "native")
        w = std::make_unique<NativeWorkload>(a.seed);
    else if (a.workload == "cross_isa")
        w = std::make_unique<CrossIsaWorkload>(a.seed);
    else
        w = std::make_unique<FleetWorkload>(a.seed, a.confs);

    // Cheap set-ups repeat for a second so their median is steady.
    std::vector<RegionResult> setups;
    const double s0 = now();
    while (setups.size() < 3 ||
           (now() - s0 < 1.0 && setups.size() < 31))
        setups.push_back(runRegion(a.trace, "bench.setup",
                                   [&](Region &r, std::vector<OpRecord> &) {
                                       w->setup(r);
                                   }));
    w->reference();

    // Enough passes for a p90 with at least ten samples beyond it.
    const size_t minOps = 100;
    const size_t perPass = std::max<size_t>(1, w->opsPerPass());
    const size_t minPasses =
        std::max<size_t>(3, (minOps + perPass - 1) / perPass) *
        (a.trace ? 2 : 1);
    std::vector<RegionResult> passes;
    const double t0 = now();
    while (passes.size() < minPasses || now() - t0 < a.seconds) {
        const bool traced = a.trace && passes.size() % 2 == 1;
        passes.push_back(runRegion(traced, "bench.pass",
                                   [&](Region &r,
                                       std::vector<OpRecord> &ops) {
                                       w->pass(r, ops);
                                   }));
    }

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const double peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    if (a.trace && !writeSpans(a.spans)) {
        std::fprintf(stderr, "xisa_perfbench: cannot write %s\n",
                     a.spans.c_str());
        return 1;
    }

    std::FILE *f = stdout;
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %" PRIu64
                 ", \"workers\": %d, \"hardware_threads\": %u, "
                 "\"build_type\": %s, \"compiler\": %s, "
                 "\"peak_rss_mb\": %.17g, \"spans\": %zu, \"setups\": [",
                 quoted(a.workload).c_str(), a.seed, exp::sweepThreads(),
                 std::thread::hardware_concurrency(),
                 quoted(PERFBENCH_BUILD_TYPE).c_str(),
                 quoted(PERFBENCH_COMPILER).c_str(), peakRssMb,
                 gSpans.spans.size());
    for (size_t i = 0; i < setups.size(); ++i) {
        std::fprintf(f, "%s", i ? ", " : "");
        printRegion(f, setups[i]);
    }
    std::fprintf(f, "], \"passes\": [");
    for (size_t i = 0; i < passes.size(); ++i) {
        std::fprintf(f, "%s", i ? ",\n" : "");
        printRegion(f, passes[i]);
    }
    std::fprintf(f, "]}\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "xisa_perfbench: %s\n", e.what());
        return 1;
    }
}
