/**
 * @file
 * vbench: the repository's end-to-end benchmark (see README.md).
 *
 *   vbench --workload {paper_mix|exit_storm|fork_fleet} --seed N
 *          --seconds S --trace {0|1} [--trace-out FILE]
 *   vbench --selftest
 *
 * One run builds the workload's guests from the seed, runs whole
 * rounds of it (every guest to completion) for S seconds, checks
 * every round's outputs, and prints one JSON line.  With --trace 0
 * it reports the end-to-end metrics; with --trace 1 it alternates
 * untraced rounds with traced ones - instruction-chunked runs with a
 * span around every library call - and reports the per-layer
 * metrics, the traced rounds' architectural Stats having been
 * compared with the untraced ones.  --selftest runs each workload
 * once at tiny sizes and feeds every check a corrupted result it
 * must reject.
 *
 * Only the library's public interface is used; spans and counters
 * are taken from outside each call.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/machine.h"
#include "guest/microguests.h"
#include "guest/minivms.h"
#include "vmm/fleet.h"
#include "vmm/golden_image.h"
#include "vmm/hypervisor.h"
#include "vmm/kcall.h"

#include "trace.h"

using namespace vvax;

namespace vbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

double
wallS()
{
    return microsSince(kProcessStart) * 1e-6;
}

/** Host CPU time of the whole process (all threads, user + sys). */
double
cpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** CPUs this process may run on, in order. */
std::vector<int>
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    out.push_back(c);
        }
        return out;
    }();
    return cpus;
}

void
pinToCpu(int round)
{
    const std::vector<int> cpus = allowedCpus();
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[round % cpus.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

int
hostCpus()
{
    return std::max<int>(1, static_cast<int>(allowedCpus().size()));
}

std::uint64_t
fnv1a(std::span<const Byte> bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (Byte b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

/** Seed-derived input generator (splitmix64). */
struct Rng
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

// ---------------------------------------------------------------------------
// Guest definitions: the counts every check derives its expectations
// from, computed from the MiniVMS workload programs (guest/minivms.cc)
// rather than from any earlier run.
// ---------------------------------------------------------------------------

/** CHMK system services a MiniVMS process issues, EXIT included. */
std::uint64_t
expectedSyscalls(Workload w, Longword iters)
{
    switch (w) {
      case Workload::Edit:
        return iters / 8 + 1; // a console line every 8th iteration
      case Workload::Transaction:
        return 2ull * iters + 1; // disk write + disk read
      case Workload::Idle:
        return iters + 1; // HIBER
      case Workload::Compute:
      case Workload::PageStress:
        return 1;
    }
    return 0;
}

std::uint64_t
expectedSyscalls(const MiniVmsConfig &cfg)
{
    std::uint64_t n = 0;
    for (int i = 0; i < cfg.numProcesses; ++i)
        n += expectedSyscalls(cfg.workloads[i % cfg.workloads.size()],
                              cfg.iterations);
    return n;
}

/** The console transcript of a finished MiniVMS. */
std::string
expectedConsole(const MiniVmsConfig &cfg)
{
    std::string out;
    for (int i = 0; i < cfg.numProcesses; ++i) {
        if (cfg.workloads[i % cfg.workloads.size()] == Workload::Edit)
            for (Longword k = 0; k < cfg.iterations / 8; ++k)
                out += "~edit\n";
    }
    return out + "MiniVMS done\r\n";
}

/**
 * Transaction iteration r (counting down from iters to 1) writes 16
 * longwords of key r to disk block r mod 64; the last write to block
 * k is therefore the smallest r == k (mod 64), and the rest of the
 * block is the untouched part of the record page (zero).
 */
constexpr int kTxnBlocks = 64;

std::vector<Byte>
expectedTxnBlock(int block, Longword iters)
{
    std::vector<Byte> out(512, 0);
    const Longword key = block == 0 ? 64 : static_cast<Longword>(block);
    if (key <= iters) {
        for (int i = 0; i < 16; ++i)
            std::memcpy(&out[i * 4], &key, 4);
    }
    return out;
}

bool
hasTransaction(const MiniVmsConfig &cfg)
{
    return std::find(cfg.workloads.begin(), cfg.workloads.end(),
                     Workload::Transaction) != cfg.workloads.end();
}

/** What a finished MiniVMS left behind. */
struct MiniVmsResult
{
    bool halted = false;
    Longword magic = 0;
    Longword completed = 0;
    Longword syscalls = 0;
    std::string console;
    std::vector<Byte> disk; //!< the first kTxnBlocks blocks
};

MiniVmsResult
readMiniVms(PhysicalMemory &mem, PhysAddr result_pa, bool halted,
            std::string console, const Byte *disk)
{
    MiniVmsResult r;
    r.halted = halted;
    r.magic = mem.read32(result_pa);
    r.completed = mem.read32(result_pa + 8);
    r.syscalls = mem.read32(result_pa + 12);
    r.console = std::move(console);
    r.disk.assign(disk, disk + kTxnBlocks * 512);
    return r;
}

/** Check list: every failed expectation appends one line. */
struct Checks
{
    std::vector<std::string> failures;
    void
    expect(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/** Processes of @p r that did not complete (all when it never
 *  reached the shutdown code). */
int
unfinished(const MiniVmsResult &r, const MiniVmsConfig &cfg)
{
    if (!r.halted || r.magic != MiniVmsImage::kResultMagic)
        return cfg.numProcesses;
    return cfg.numProcesses -
           std::min<int>(cfg.numProcesses, static_cast<int>(r.completed));
}

void
checkMiniVms(Checks &c, const std::string &who, const MiniVmsResult &r,
             const MiniVmsConfig &cfg)
{
    c.expect(r.halted, who + ": did not halt");
    c.expect(r.magic == MiniVmsImage::kResultMagic,
             who + ": no result magic");
    c.expect(r.completed == static_cast<Longword>(cfg.numProcesses),
             who + ": completed " + std::to_string(r.completed) + " of " +
                 std::to_string(cfg.numProcesses) + " processes");
    c.expect(r.syscalls == expectedSyscalls(cfg),
             who + ": " + std::to_string(r.syscalls) +
                 " system services, definition gives " +
                 std::to_string(expectedSyscalls(cfg)));
    c.expect(r.console == expectedConsole(cfg),
             who + ": console transcript differs from the definition");
    if (hasTransaction(cfg)) {
        for (int b = 0; b < kTxnBlocks; ++b) {
            const std::vector<Byte> want =
                expectedTxnBlock(b, cfg.iterations);
            if (std::memcmp(want.data(), &r.disk[b * 512], 512) != 0) {
                c.expect(false, who + ": disk block " + std::to_string(b) +
                                    " does not hold its Transaction key");
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Running machines.  Untraced runs make one call per machine; traced
// runs drive the same machine in instruction-budgeted chunks with a
// span (carrying the chunk's counter delta) around every call.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kBudget = 1ull << 40; //!< "to completion"
constexpr std::uint64_t kChunk = 100000;      //!< traced chunk, instrs
constexpr std::uint64_t kFleetChunk = 1000000; //!< per member

/** Host time of one phase of a round: one machine's run, or the
 *  fleet's. */
struct PhaseTime
{
    double wall = 0, cpu = 0;
};

struct Ctx
{
    explicit Ctx(Tracer &t) : tr(t) {}

    Tracer &tr;
    bool chunked = false;
    std::vector<PhaseTime> phases; //!< this round's, in run order
};

/** Times the enclosing phase into Ctx::phases. */
class PhaseTimer
{
  public:
    explicit PhaseTimer(Ctx &ctx) : ctx_(ctx), wall_(wallS()), cpu_(cpuS())
    {
    }
    ~PhaseTimer()
    {
        ctx_.phases.push_back({wallS() - wall_, cpuS() - cpu_});
    }
    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    Ctx &ctx_;
    double wall_, cpu_;
};

std::uint64_t
vmExits(const VmStats &v)
{
    return v.emulationTraps + v.shadowFaults + v.modifyFaults +
           v.reflectedExceptions + v.mmioExits;
}

std::string
deltaArgs(const Stats &a, const Stats &b, const VmStats *va = nullptr,
          const VmStats *vb = nullptr)
{
    char buf[512];
    int n = std::snprintf(
        buf, sizeof buf,
        "\"instructions\":%llu,\"busy_cycles\":%llu,\"tlb_misses\":%llu,"
        "\"threaded_instructions\":%llu,\"block_builds\":%llu",
        static_cast<unsigned long long>(b.instructions - a.instructions),
        static_cast<unsigned long long>(b.busyCycles() - a.busyCycles()),
        static_cast<unsigned long long>(b.tlbMisses - a.tlbMisses),
        static_cast<unsigned long long>(b.threadedInstructions -
                                        a.threadedInstructions),
        static_cast<unsigned long long>(b.blockBuilds - a.blockBuilds));
    if (va != nullptr && vb != nullptr) {
        std::snprintf(
            buf + n, sizeof buf - n,
            ",\"exits\":%llu,\"emulation_traps\":%llu,"
            "\"shadow_fills\":%llu,\"kcalls\":%llu",
            static_cast<unsigned long long>(vmExits(*vb) - vmExits(*va)),
            static_cast<unsigned long long>(vb->emulationTraps -
                                            va->emulationTraps),
            static_cast<unsigned long long>(vb->shadowFills -
                                            va->shadowFills),
            static_cast<unsigned long long>(vb->kcalls - va->kcalls));
    }
    return buf;
}

/** Run a bare machine until it halts. */
bool
runBare(Ctx &ctx, RealMachine &m)
{
    if (!ctx.chunked)
        return m.run(kBudget) == RunState::Halted;
    while (m.stats().instructions < kBudget) {
        const Stats before = m.stats();
        Scope s(ctx.tr, "cpu.run");
        const RunState st = m.run(kChunk);
        s.setArgs(deltaArgs(before, m.stats()));
        if (st == RunState::Halted)
            return true;
    }
    return false;
}

/** Run @p hv's only VM for up to @p budget instructions. */
void
runHv(Ctx &ctx, Hypervisor &hv, std::uint64_t budget = kBudget)
{
    VirtualMachine &vm = hv.vm(0);
    if (!ctx.chunked) {
        hv.run(budget);
        return;
    }
    RealMachine &m = hv.machine();
    const std::uint64_t end = m.stats().instructions + budget;
    while (!vm.halted() && m.stats().instructions < end) {
        const Stats before = m.stats();
        const VmStats vbefore = vm.stats;
        Scope s(ctx.tr, "vmm.run");
        hv.run(std::min(kChunk, end - m.stats().instructions));
        s.setArgs(deltaArgs(before, m.stats(), &vbefore, &vm.stats));
    }
}

bool
fleetDone(HypervisorFleet &f)
{
    for (int i = 0; i < f.size(); ++i)
        if (!f.vm(i).halted())
            return false;
    return true;
}

void
runFleet(Ctx &ctx, HypervisorFleet &f)
{
    if (!ctx.chunked) {
        f.run(kBudget);
        return;
    }
    for (std::uint64_t used = 0; !fleetDone(f) && used < kBudget;
         used += kFleetChunk) {
        const Stats before = f.totalMachineStats();
        const VmStats vbefore = f.totalVmStats();
        Scope s(ctx.tr, "fleet.run");
        f.run(kFleetChunk);
        const VmStats vafter = f.totalVmStats();
        s.setArgs(deltaArgs(before, f.totalMachineStats(), &vbefore,
                            &vafter));
    }
}

MachineConfig
vmMachineConfig()
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.model = MachineModel::Vax8800;
    mc.level = MicrocodeLevel::Modified;
    return mc;
}

/** A (machine, hypervisor, VM) stack built and loaded for one run. */
struct VmStack
{
    std::unique_ptr<RealMachine> machine;
    std::unique_ptr<Hypervisor> hv;
    VirtualMachine *vm = nullptr;
};

VmStack
newVmStack(Ctx &ctx, const HypervisorConfig &hc, Longword vm_mem,
           std::span<const Byte> image, PhysAddr load, VirtAddr entry)
{
    VmStack s;
    {
        Scope sc(ctx.tr, "core.machine_new");
        s.machine = std::make_unique<RealMachine>(vmMachineConfig());
        s.hv = std::make_unique<Hypervisor>(*s.machine, hc);
    }
    Scope sc(ctx.tr, "core.load");
    VmConfig vc;
    vc.memBytes = vm_mem;
    s.vm = &s.hv->createVm(vc);
    s.hv->loadVmImage(*s.vm, load, image);
    s.hv->startVm(*s.vm, entry);
    return s;
}

/** Finished VM -> MiniVMS result (console flushed at halt). */
MiniVmsResult
readVmMiniVms(VmStack &s, const MiniVmsImage &img)
{
    return readMiniVms(s.machine->memory(),
                       s.vm->vmPhysToReal(img.resultBase),
                       s.vm->haltReason == VmHaltReason::HaltInstruction,
                       s.vm->console.output(), s.vm->disk.data());
}

// ---------------------------------------------------------------------------
// One round's accounting, summed over every machine in the workload.
// ---------------------------------------------------------------------------

struct RoundOutcome
{
    std::vector<Stats> machines;  //!< per machine, for lockstep compares
    std::vector<VmStats> vms;     //!< per VM
    Stats bare, virt;             //!< sums over bare / VMM machines
    VmStats vm;                   //!< sum over VMs
    std::uint64_t consoleBytes = 0;
    std::uint64_t diskBlocks = 0;
    int jobs = 0;
    int failedJobs = 0;
    std::vector<std::string> failures;
    // Host time inside HypervisorFleet::run (fork_fleet only).
    double fleetWallS = 0, fleetCpuS = 0;
    int fleetWorkers = 0;
    double pagesTouchedPerVm = 0, privateKibPerVm = 0;

    void
    addBare(const Stats &s)
    {
        machines.push_back(s);
        bare += s;
    }
    void
    addVm(const Stats &s, const VmStats &v)
    {
        machines.push_back(s);
        vms.push_back(v);
        virt += s;
        vm += v;
    }
    std::uint64_t
    busyCycles() const
    {
        return bare.busyCycles() + virt.busyCycles();
    }
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;
    /** Assemble guest images (and, for fork_fleet, boot and seal). */
    virtual void setup(Ctx &ctx) = 0;
    /** Build and load this round's machines. */
    virtual void prepare(Ctx &ctx) = 0;
    /** Run every guest to completion (the timed part). */
    virtual void run(Ctx &ctx) = 0;
    /** Collect and check outputs, then free the machines. */
    virtual RoundOutcome finish(Ctx &ctx) = 0;
    /** Guest workload iterations in one round. */
    virtual std::uint64_t iterations() const = 0;
    /** One-line description of the seed-derived inputs. */
    virtual std::string describe() const = 0;
};

// ---------------------------------------------------------------------------
// paper_mix: the Section 7.3 MiniVMS mix, bare then in one VM.
// ---------------------------------------------------------------------------

struct PaperMixResult
{
    MiniVmsResult bare, vm;
    std::uint64_t bareBusy = 0, vmBusy = 0;
};

std::vector<std::string>
checkPaperMix(const MiniVmsConfig &cfg, const PaperMixResult &r)
{
    Checks c;
    checkMiniVms(c, "bare", r.bare, cfg);
    checkMiniVms(c, "vm", r.vm, cfg);
    // Section 5's equivalence property: the same guest does the same
    // work bare and virtualized.
    c.expect(r.bare.syscalls == r.vm.syscalls,
             "system-service counts differ bare vs virtualized");
    c.expect(r.bare.console == r.vm.console,
             "console bytes differ bare vs virtualized");
    c.expect(r.vmBusy > r.bareBusy,
             "VM busy cycles do not exceed bare busy cycles");
    return c.failures;
}

class PaperMix final : public BenchWorkload
{
  public:
    PaperMix(std::uint64_t seed, bool tiny)
    {
        Rng rng{seed};
        cfg_.numProcesses = 4;
        cfg_.workloads = {Workload::Edit, Workload::Edit,
                          Workload::Transaction, Workload::Transaction};
        shuffle(cfg_.workloads, rng);
        cfg_.iterations = tiny ? 24 : 1024 + rng.below(4);
        cfg_.dataPagesPerProcess = 16;
        cfg_.quantumCycles = 12000;
    }

    const MiniVmsConfig &config() const { return cfg_; }
    const PaperMixResult &last() const { return last_; }

    void
    setup(Ctx &ctx) override
    {
        MiniVmsConfig bare_cfg = cfg_;
        bare_cfg.diskCsrPfn = bareConfig().diskCsrBase >> kPageShift;
        {
            Scope s(ctx.tr, "guest.build");
            bareImg_ = buildMiniVms(bare_cfg);
        }
        Scope s(ctx.tr, "guest.build");
        vmImg_ = buildMiniVms(cfg_);
    }

    void
    prepare(Ctx &ctx) override
    {
        {
            Scope s(ctx.tr, "core.machine_new");
            bare_ = std::make_unique<RealMachine>(bareConfig());
        }
        {
            Scope s(ctx.tr, "core.load");
            bare_->loadImage(0, bareImg_.image);
            bare_->cpu().setPc(bareImg_.entry);
            bare_->cpu().psl().setIpl(31);
        }
        HypervisorConfig hc; // shadow cache on, synchronous KCALL disk
        vm_ = newVmStack(ctx, hc, cfg_.memBytes, vmImg_.image, 0,
                         vmImg_.entry);
    }

    void
    run(Ctx &ctx) override
    {
        {
            PhaseTimer t(ctx);
            bareHalted_ = runBare(ctx, *bare_);
        }
        PhaseTimer t(ctx);
        runHv(ctx, *vm_.hv);
    }

    RoundOutcome
    finish(Ctx &ctx) override
    {
        Scope s(ctx.tr, "check");
        last_.bare = readMiniVms(bare_->memory(), bareImg_.resultBase,
                                 bareHalted_, bare_->console().output(),
                                 bare_->disk().data().data());
        last_.vm = readVmMiniVms(vm_, vmImg_);
        last_.bareBusy = bare_->stats().busyCycles();
        last_.vmBusy = vm_.machine->stats().busyCycles();

        RoundOutcome o;
        o.addBare(bare_->stats());
        o.addVm(vm_.machine->stats(), vm_.vm->stats);
        o.consoleBytes = last_.bare.console.size() + last_.vm.console.size();
        o.diskBlocks = bare_->disk().transfersCompleted() +
                       vm_.vm->stats.batchedDiskBlocks;
        o.jobs = 2 * cfg_.numProcesses;
        o.failedJobs = unfinished(last_.bare, cfg_) +
                       unfinished(last_.vm, cfg_);
        o.failures = checkPaperMix(cfg_, last_);
        bare_.reset();
        vm_ = VmStack{};
        return o;
    }

    std::uint64_t
    iterations() const override
    {
        return 2ull * cfg_.numProcesses * cfg_.iterations;
    }

    std::string
    describe() const override
    {
        return "processes=" + order(cfg_) +
               " iterations=" + std::to_string(cfg_.iterations);
    }

    static std::string
    order(const MiniVmsConfig &cfg)
    {
        std::string s;
        for (Workload w : cfg.workloads)
            s += w == Workload::Edit ? 'E'
                 : w == Workload::Transaction ? 'T'
                 : w == Workload::PageStress ? 'P'
                                             : 'C';
        return s;
    }

  private:
    MachineConfig
    bareConfig() const
    {
        MachineConfig mc;
        mc.ramBytes = cfg_.memBytes;
        mc.model = MachineModel::Vax8800;
        mc.level = MicrocodeLevel::Standard;
        return mc;
    }

    MiniVmsConfig cfg_;
    MiniVmsImage bareImg_, vmImg_;
    std::unique_ptr<RealMachine> bare_;
    VmStack vm_;
    bool bareHalted_ = false;
    PaperMixResult last_;
};

// ---------------------------------------------------------------------------
// exit_storm: four exit-dominated guests, each in its own VM.
// ---------------------------------------------------------------------------

/** I/O loop transfer buffer (microguests.cc kIoBuffer): eight write
 *  runs, then the eight runs the reads land in. */
constexpr PhysAddr kIoBuffer = 0x4000;
constexpr Longword kIoWriteBytes = kIoDenseDescriptors / 2 * 512;

/**
 * Emulation traps the trap-dense loop takes outside its loop body:
 * the MTPR #31,IPL before the loop and the HALT that ends it.
 */
constexpr std::uint64_t kTrapLoopBootTraps = 2;

struct ExitStormSpec
{
    Longword trapIters = 0, switchIters = 0, ioIters = 0;
    MiniVmsConfig pages;
    std::vector<Byte> ioData; //!< what the I/O loop writes to disk
    std::array<int, 4> order{0, 1, 2, 3};
};

struct ExitStormResult
{
    bool trapHalted = false, switchHalted = false, ioHalted = false;
    VmStats trap, sw, io;
    std::array<std::uint64_t, 256> trapOpcodes{};
    std::string ioConsole;
    std::vector<Byte> ioDisk;     //!< disk blocks the loop wrote
    std::vector<Byte> ioReadBack; //!< where its reads landed
    MiniVmsResult pages;
};

std::vector<std::string>
checkExitStorm(const ExitStormSpec &spec, const ExitStormResult &r)
{
    Checks c;
    const std::uint64_t n = spec.trapIters;
    c.expect(r.trapHalted && r.switchHalted && r.ioHalted,
             "a microguest loop did not reach its HALT");
    // Two MTPR IPL, one MFPR IPL and one PROBER per iteration.
    c.expect(r.trap.emulationTraps == 4 * n + kTrapLoopBootTraps,
             "trap loop: " + std::to_string(r.trap.emulationTraps) +
                 " emulation traps, want 4 per iteration + " +
                 std::to_string(kTrapLoopBootTraps));
    c.expect(r.trapOpcodes[static_cast<int>(Opcode::MTPR)] == 2 * n + 1 &&
                 r.trapOpcodes[static_cast<int>(Opcode::HALT)] == 1 &&
                 r.trapOpcodes[static_cast<int>(Opcode::MFPR)] == n &&
                 r.trapOpcodes[static_cast<int>(Opcode::PROBER)] == n,
             "trap loop: per-opcode exits differ from the loop body");
    // The counter is decremented before the test, so iterations-1
    // passes each switch A->B and B->A.
    const std::uint64_t switches = 2ull * (spec.switchIters - 1);
    c.expect(r.sw.contextSwitches == switches &&
                 r.sw.ldpctxEmulations == switches &&
                 r.sw.svpctxEmulations == switches,
             "switch loop: " + std::to_string(r.sw.contextSwitches) +
                 " context switches, want " + std::to_string(switches));
    c.expect(r.io.diskKcallBatches == spec.ioIters,
             "I/O loop: " + std::to_string(r.io.diskKcallBatches) +
                 " kDiskBatch exits, want one per iteration");
    c.expect(r.io.batchedDiskBlocks ==
                 std::uint64_t{kIoDenseDescriptors} * spec.ioIters,
             "I/O loop: batched block count differs from the ring");
    std::string console;
    for (Longword i = 0; i < spec.ioIters; ++i)
        console += "io.\n";
    c.expect(r.ioConsole == console,
             "I/O loop: console bytes differ from the loop definition");
    c.expect(r.ioDisk == spec.ioData,
             "I/O loop: disk blocks differ from the written buffer");
    c.expect(r.ioReadBack == spec.ioData,
             "I/O loop: read-back buffer differs from the written data");
    checkMiniVms(c, "page-stress MiniVMS", r.pages, spec.pages);
    return c.failures;
}

class ExitStorm final : public BenchWorkload
{
  public:
    ExitStorm(std::uint64_t seed, bool tiny)
    {
        Rng rng{seed};
        spec_.trapIters = tiny ? 50 : 50000 + 50 * rng.below(4);
        spec_.switchIters = tiny ? 50 : 25000 + 25 * rng.below(4);
        spec_.ioIters = tiny ? 10 : 5000 + 5 * rng.below(4);
        MiniVmsConfig &p = spec_.pages;
        // More processes than HypervisorConfig::shadowSlotsPerVm (8),
        // so the shadow slot cache thrashes.
        p.numProcesses = 12;
        p.workloads = {Workload::PageStress};
        p.dataPagesPerProcess = 16;
        p.iterations = tiny ? 4 : 1024 + rng.below(4);
        p.quantumCycles = 12000;
        spec_.ioData.resize(kIoWriteBytes);
        for (Byte &b : spec_.ioData)
            b = static_cast<Byte>(rng.next());
        std::vector<int> order{0, 1, 2, 3};
        shuffle(order, rng);
        std::copy(order.begin(), order.end(), spec_.order.begin());
    }

    const ExitStormSpec &spec() const { return spec_; }
    const ExitStormResult &last() const { return last_; }

    void
    setup(Ctx &ctx) override
    {
        {
            Scope s(ctx.tr, "guest.build");
            trapImg_ = buildTrapDenseLoop(spec_.trapIters);
        }
        {
            Scope s(ctx.tr, "guest.build");
            switchImg_ = buildContextSwitchLoop(spec_.switchIters);
        }
        {
            Scope s(ctx.tr, "guest.build");
            ioImg_ = buildIoDenseLoop(spec_.ioIters, true);
        }
        Scope s(ctx.tr, "guest.build");
        pagesImg_ = buildMiniVms(spec_.pages);
    }

    void
    prepare(Ctx &ctx) override
    {
        const HypervisorConfig hc;
        const Longword mem = 1024 * 1024;
        trap_ = newVmStack(ctx, hc, mem, trapImg_.image, trapImg_.loadBase,
                           trapImg_.entry);
        switch_ = newVmStack(ctx, hc, mem, switchImg_.image,
                             switchImg_.loadBase, switchImg_.entry);
        io_ = newVmStack(ctx, hc, mem, ioImg_.image, ioImg_.loadBase,
                         ioImg_.entry);
        {
            Scope s(ctx.tr, "core.load");
            io_.hv->loadVmImage(*io_.vm, kIoBuffer, spec_.ioData);
        }
        pages_ = newVmStack(ctx, hc, spec_.pages.memBytes, pagesImg_.image,
                            0, pagesImg_.entry);
    }

    void
    run(Ctx &ctx) override
    {
        VmStack *phases[4] = {&trap_, &switch_, &io_, &pages_};
        for (int i : spec_.order) {
            PhaseTimer t(ctx);
            runHv(ctx, *phases[i]->hv);
        }
    }

    RoundOutcome
    finish(Ctx &ctx) override
    {
        Scope s(ctx.tr, "check");
        auto halted = [](const VmStack &v) {
            return v.vm->haltReason == VmHaltReason::HaltInstruction;
        };
        ExitStormResult &r = last_;
        r.trapHalted = halted(trap_);
        r.switchHalted = halted(switch_);
        r.ioHalted = halted(io_);
        r.trap = trap_.vm->stats;
        r.trapOpcodes = trap_.machine->stats().vmTrapOpcodes;
        r.sw = switch_.vm->stats;
        r.io = io_.vm->stats;
        r.ioConsole = io_.vm->console.output();
        const Byte *disk = io_.vm->disk.data();
        r.ioDisk.assign(disk, disk + kIoWriteBytes);
        r.ioReadBack.resize(kIoWriteBytes);
        io_.machine->memory().readBlock(
            io_.vm->vmPhysToReal(kIoBuffer + kIoWriteBytes), r.ioReadBack);
        r.pages = readVmMiniVms(pages_, pagesImg_);

        RoundOutcome o;
        std::uint64_t console = 0;
        for (VmStack *v : {&trap_, &switch_, &io_, &pages_}) {
            o.addVm(v->machine->stats(), v->vm->stats);
            console += v->vm->console.output().size();
            o.diskBlocks += v->vm->stats.batchedDiskBlocks;
        }
        o.consoleBytes = console;
        o.jobs = 3 + spec_.pages.numProcesses;
        o.failedJobs = !r.trapHalted + !r.switchHalted + !r.ioHalted +
                       unfinished(r.pages, spec_.pages);
        o.failures = checkExitStorm(spec_, r);
        for (VmStack *v : {&trap_, &switch_, &io_, &pages_})
            *v = VmStack{};
        return o;
    }

    std::uint64_t
    iterations() const override
    {
        return std::uint64_t{spec_.trapIters} + spec_.switchIters +
               spec_.ioIters +
               std::uint64_t{spec_.pages.iterations} *
                   spec_.pages.numProcesses;
    }

    std::string
    describe() const override
    {
        static const char *names[4] = {"trap", "switch", "io", "pages"};
        std::string order;
        for (int i : spec_.order)
            order += std::string(order.empty() ? "" : ",") + names[i];
        return "trap=" + std::to_string(spec_.trapIters) +
               " switch=" + std::to_string(spec_.switchIters) +
               " io=" + std::to_string(spec_.ioIters) +
               " pagestress=12x" + std::to_string(spec_.pages.iterations) +
               " order=" + order;
    }

  private:
    ExitStormSpec spec_;
    MicroGuestImage trapImg_, switchImg_, ioImg_;
    MiniVmsImage pagesImg_;
    VmStack trap_, switch_, io_, pages_;
    ExitStormResult last_;
};

// ---------------------------------------------------------------------------
// fork_fleet: a sealed MiniVMS forked into a fleet.
// ---------------------------------------------------------------------------

struct MemberDigest
{
    std::uint64_t memory = 0, disk = 0, console = 0;
    bool operator==(const MemberDigest &) const = default;
};

/** Digest of a VM's memory (uptime mailbox zeroed: it is VMM time,
 *  not guest state), disk and console. */
MemberDigest
digestOf(RealMachine &m, const VirtualMachine &vm)
{
    const std::span<const Byte> ram = m.memory().ram();
    const std::size_t base = static_cast<std::size_t>(vm.basePfn)
                             << kPageShift;
    const std::size_t size =
        static_cast<std::size_t>(vm.memPages) * kPageSize;
    std::vector<Byte> copy(ram.begin() + base, ram.begin() + base + size);
    if (vm.uptimeMailbox != 0 && vm.uptimeMailbox + 4 <= size)
        std::memset(&copy[vm.uptimeMailbox], 0, 4);
    const std::string &con = vm.console.output();
    return {fnv1a(copy), fnv1a(vm.disk),
            fnv1a({reinterpret_cast<const Byte *>(con.data()), con.size()})};
}

struct ForkFleetResult
{
    std::vector<MiniVmsResult> members;
    std::vector<MemberDigest> digests;
    std::vector<std::uint64_t> pagesTouched;
    MemberDigest reference; //!< one fork run alone on a Hypervisor
    std::uint64_t imagePages = 0;
};

std::vector<std::string>
checkForkFleet(const MiniVmsConfig &cfg, int members,
               const ForkFleetResult &r)
{
    Checks c;
    c.expect(static_cast<int>(r.members.size()) == members &&
                 static_cast<int>(r.digests.size()) == members,
             "fleet reported " + std::to_string(r.members.size()) + " of " +
                 std::to_string(members) + " members");
    for (std::size_t i = 0; i < r.members.size(); ++i)
        checkMiniVms(c, "member " + std::to_string(i), r.members[i], cfg);
    for (std::size_t i = 0; i < r.digests.size(); ++i) {
        c.expect(r.digests[i] == r.reference,
                 "member " + std::to_string(i) +
                     " digest differs from the fork run alone");
    }
    for (std::size_t i = 0; i < r.pagesTouched.size(); ++i) {
        c.expect(r.pagesTouched[i] < r.imagePages,
                 "member " + std::to_string(i) +
                     " privately touched every image page");
    }
    return c.failures;
}

class ForkFleet final : public BenchWorkload
{
  public:
    ForkFleet(std::uint64_t seed, bool tiny) : members_(tiny ? 3 : 16)
    {
        Rng rng{seed};
        cfg_.numProcesses = 4;
        cfg_.workloads = {Workload::Transaction, Workload::Transaction,
                          Workload::Transaction, Workload::Edit};
        shuffle(cfg_.workloads, rng);
        // Short members make short rounds: many of them fit in a run,
        // so the fastest round (see typical()) is well sampled.  Not
        // drawn from the seed: one iteration more would be 6 % more
        // work.
        cfg_.iterations = tiny ? 8 : 16;
        cfg_.dataPagesPerProcess = 16;
        cfg_.quantumCycles = 12000;
        hc_.asyncDiskIo = true;
        // Boot budget before the seal: the kernel's set-up and the
        // first process dispatch, ahead of the first system service
        // (~100 instructions in), so every member runs every
        // iteration after the fork.
        sealInstructions_ = 40 + 5 * rng.below(8);
    }

    const MiniVmsConfig &config() const { return cfg_; }
    int members() const { return members_; }
    const ForkFleetResult &last() const { return last_; }

    void
    setup(Ctx &ctx) override
    {
        {
            Scope s(ctx.tr, "guest.build");
            img_ = buildMiniVms(cfg_);
        }
        VmStack boot = newVmStack(ctx, hc_, cfg_.memBytes, img_.image, 0,
                                  img_.entry);
        {
            Scope s(ctx.tr, "golden.boot");
            runHv(ctx, *boot.hv, sealInstructions_);
        }
        sealSyscalls_ = boot.machine->stats().vmTrapOpcodes[static_cast<int>(
            Opcode::CHMK)];
        Scope s(ctx.tr, "golden.seal");
        image_ = GoldenImage::seal(*boot.hv, *boot.vm);
    }

    void
    prepare(Ctx &ctx) override
    {
        FleetConfig fc;
        fc.workers = kWorkers;
        fc.machine = vmMachineConfig();
        fc.hypervisor = hc_;
        fleet_ = std::make_unique<HypervisorFleet>(fc);
        for (int i = 0; i < members_; ++i) {
            Scope s(ctx.tr, "fleet.add_member");
            fleet_->addForkedMember(image_);
        }
    }

    void
    run(Ctx &ctx) override
    {
        {
            PhaseTimer t(ctx);
            runFleet(ctx, *fleet_);
        }
        fleetWall_ = ctx.phases.back().wall;
        fleetCpu_ = ctx.phases.back().cpu;
    }

    RoundOutcome
    finish(Ctx &ctx) override
    {
        if (!haveReference_) {
            // The reference: one more fork of the same image, run
            // alone on its own Hypervisor, outside any fleet.
            Scope s(ctx.tr, "golden.fork");
            GoldenFork f = image_.fork();
            runHv(ctx, *f.hv);
            reference_ = digestOf(*f.machine, *f.vm);
            haveReference_ = true;
        }
        Scope s(ctx.tr, "check");
        ForkFleetResult &r = last_;
        r = ForkFleetResult{};
        r.reference = reference_;
        r.imagePages = image_.ramBytes() / kPageSize;
        RoundOutcome o;
        double touched = 0, priv = 0;
        for (int i = 0; i < fleet_->size(); ++i) {
            RealMachine &m = fleet_->machine(i);
            VirtualMachine &vm = fleet_->vm(i);
            r.members.push_back(readMiniVms(
                m.memory(), vm.vmPhysToReal(img_.resultBase),
                vm.haltReason == VmHaltReason::HaltInstruction,
                vm.console.output(), vm.disk.data()));
            r.digests.push_back(digestOf(m, vm));
            const CowStats cs = m.memory().cowStats();
            r.pagesTouched.push_back(cs.pagesTouched);
            touched += static_cast<double>(cs.pagesTouched);
            priv += static_cast<double>(cs.privateBytes);
            o.addVm(m.stats(), vm.stats);
            o.consoleBytes += vm.console.output().size();
            o.diskBlocks += vm.stats.batchedDiskBlocks;
            o.failedJobs += unfinished(r.members.back(), cfg_) > 0;
        }
        o.jobs = members_;
        o.failedJobs += members_ - fleet_->size();
        o.pagesTouchedPerVm = touched / std::max(1, fleet_->size());
        o.privateKibPerVm = priv / 1024.0 / std::max(1, fleet_->size());
        o.fleetWallS = fleetWall_;
        o.fleetCpuS = fleetCpu_;
        o.fleetWorkers = kWorkers;
        o.failures = checkForkFleet(cfg_, members_, r);
        if (sealSyscalls_ != 0)
            o.failures.push_back("the seal point is past the first system "
                                 "service");
        fleet_.reset();
        return o;
    }

    std::uint64_t
    iterations() const override
    {
        return std::uint64_t{cfg_.iterations} * cfg_.numProcesses *
               members_;
    }

    std::string
    describe() const override
    {
        return "processes=" + PaperMix::order(cfg_) +
               " iterations=" + std::to_string(cfg_.iterations) +
               " members=" + std::to_string(members_) +
               " seal_at=" + std::to_string(sealInstructions_) +
               " workers=" + std::to_string(kWorkers) +
               " kernel_cow=" + std::to_string(image_.kernelBacked());
    }

  private:
    MiniVmsConfig cfg_;
    HypervisorConfig hc_;
    // One worker: on a shared host a round split over several worker
    // threads waits on whichever CPU is slowest, and its time measures
    // the host's scheduler more than the fleet.  Members still
    // interleave in fleet rounds with a barrier merge after each, and
    // each owns an async-disk engine thread.
    static constexpr int kWorkers = 1;
    int members_;
    std::uint64_t sealInstructions_ = 0;
    std::uint64_t sealSyscalls_ = 0;
    MiniVmsImage img_;
    GoldenImage image_;
    std::unique_ptr<HypervisorFleet> fleet_;
    double fleetWall_ = 0, fleetCpu_ = 0;
    bool haveReference_ = false;
    MemberDigest reference_;
    ForkFleetResult last_;
};

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny)
{
    if (name == "paper_mix")
        return std::make_unique<PaperMix>(seed, tiny);
    if (name == "exit_storm")
        return std::make_unique<ExitStorm>(seed, tiny);
    if (name == "fork_fleet")
        return std::make_unique<ForkFleet>(seed, tiny);
    return nullptr;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
perK(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0 : 1000.0 * static_cast<double>(num) /
                              static_cast<double>(den);
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

/** One traced round's layer view: span self times plus counters. */
struct LayerRound
{
    std::map<std::string, double> selfUs;
    RoundOutcome o;
};

double
selfMs(const LayerRound &l, const char *name)
{
    const auto it = l.selfUs.find(name);
    return it == l.selfUs.end() ? 0 : it->second / 1000.0;
}

/**
 * The per-round value a run reports.  Contention on a shared host
 * only ever slows a round down, so the least-disturbed (fastest) round
 * estimates its cost.
 */
double
typical(const std::vector<double> &v)
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/**
 * A run's typical round cost from every round's phase times: the sum,
 * over phases, of each phase's fastest time.  Every phase is one
 * machine or one fleet running on one CPU, and its fastest run is its
 * least-disturbed cost (see typical()).
 */
double
typicalRound(const std::vector<std::vector<PhaseTime>> &rounds,
             double PhaseTime::*field)
{
    if (rounds.empty())
        return 0;
    double total = 0;
    for (std::size_t p = 0; p < rounds.front().size(); ++p) {
        std::vector<double> v;
        for (const auto &r : rounds)
            v.push_back(r[p].*field);
        total += typical(v);
    }
    return total;
}

std::vector<Metric>
layerMetrics(const Tracer &tr,
             const std::vector<LayerRound> &rounds, double overhead_pct)
{
    std::vector<Metric> m;
    // Host times: the typical value over traced rounds.
    auto over = [&](const std::function<double(const LayerRound &)> &f) {
        std::vector<double> v;
        for (const LayerRound &l : rounds)
            v.push_back(f(l));
        return typical(v);
    };
    const RoundOutcome &o = rounds.back().o; // counters repeat exactly
    const bool fleet = o.fleetWorkers > 0;
    const Stats all = [&] {
        Stats s = o.bare;
        s += o.virt;
        return s;
    }();
    // Set-up spans (image assembly, boot and seal) lie inside the
    // "setup" span, which opens first.
    const auto &spans = tr.spans();
    const double setup_end = spans.empty() ? 0 : spans.front().endUs;
    std::map<std::string, double> setup_us;
    std::map<std::string, int> calls;
    for (const auto &s : spans) {
        if (s.startUs < setup_end)
            setup_us[s.name] += s.endUs - s.startUs - s.childUs;
        calls[s.name]++;
    }
    auto setupMs = [&](const char *name) {
        const auto it = setup_us.find(name);
        return it == setup_us.end() ? 0 : it->second / 1000.0;
    };
    const auto all_us = tr.selfTimeByName(0);
    // Mean host time of one call, over every traced call.
    auto perCallMs = [&](const char *name) {
        const auto it = all_us.find(name);
        return it == all_us.end() ? 0
                                  : it->second / 1000.0 / calls[name];
    };

    m.push_back({"guest.build_ms", setupMs("guest.build"), "ms"});
    m.push_back({"core.machine_new_ms", perCallMs("core.machine_new"),
                 "ms"});

    // cpu: the bare half of paper_mix.
    const double bare_ms = over([](const LayerRound &l) {
        return selfMs(l, "cpu.run");
    });
    m.push_back({"cpu.bare_ns_per_instr",
                 ratio(bare_ms * 1e6,
                       static_cast<double>(o.bare.instructions)),
                 "ns"});
    m.push_back({"cpu.threaded_instr_frac",
                 ratio(static_cast<double>(all.threadedInstructions),
                       static_cast<double>(all.instructions)),
                 "fraction"});
    m.push_back({"cpu.threaded_bails_per_kexec",
                 perK(all.threadedBails, all.threadedExecutions), "1/k"});
    m.push_back({"cpu.block_builds", double(all.blockBuilds), "count"});
    m.push_back({"cpu.block_invalidations", double(all.blockInvalidations),
                 "count"});
    m.push_back({"cpu.trace_link_mispredicts",
                 double(all.traceLinkMispredicts), "count"});

    m.push_back({"memory.tlb_misses_per_kinstr",
                 perK(all.tlbMisses, all.instructions), "1/kinstr"});
    m.push_back({"memory.tlb_context_switches",
                 double(all.tlbContextSwitches), "count"});

    // vmm: host time per VM instruction and per exit.  On the fleet
    // the VM time is CPU time inside HypervisorFleet::run (it also
    // counts the async-disk engine threads); elsewhere it is
    // Hypervisor::run time.
    const double vm_ms = over([&](const LayerRound &l) {
        return fleet ? l.o.fleetCpuS * 1000.0 : selfMs(l, "vmm.run");
    });
    const std::uint64_t exits = vmExits(o.vm);
    m.push_back({"vmm.vm_ns_per_instr",
                 ratio(vm_ms * 1e6, static_cast<double>(o.virt.instructions)),
                 "ns"});
    m.push_back({"vmm.exits_per_kinstr", perK(exits, o.virt.instructions),
                 "1/kinstr"});
    // paper_mix: the VM half's extra host time over the bare half,
    // per exit; elsewhere all VM host time per exit.
    const double extra_ms =
        o.bare.instructions != 0 ? vm_ms - bare_ms : vm_ms;
    m.push_back({"vmm.host_ns_per_exit",
                 ratio(extra_ms * 1e6, static_cast<double>(exits)), "ns"});
    struct OpGroup
    {
        const char *name;
        std::vector<Opcode> ops;
    };
    const OpGroup groups[] = {
        {"CHMx", {Opcode::CHMK, Opcode::CHME, Opcode::CHMS, Opcode::CHMU}},
        {"REI", {Opcode::REI}},
        {"MTPR", {Opcode::MTPR}},
        {"MFPR", {Opcode::MFPR}},
        {"LDPCTX", {Opcode::LDPCTX}},
        {"SVPCTX", {Opcode::SVPCTX}},
        {"PROBEx", {Opcode::PROBER, Opcode::PROBEW}},
    };
    for (const OpGroup &g : groups) {
        std::uint64_t n = 0;
        for (Opcode op : g.ops)
            n += all.vmTrapOpcodes[static_cast<int>(op)];
        m.push_back({std::string("vmm.exits.") + g.name, double(n),
                     "count"});
    }
    m.push_back({"vmm.shadow_fills", double(o.vm.shadowFills), "count"});
    m.push_back({"vmm.shadow_fills_per_switch",
                 ratio(double(o.vm.shadowFills),
                       double(o.vm.contextSwitches)),
                 "fills"});
    m.push_back({"vmm.shadow_cache_hits", double(o.vm.shadowCacheHits),
                 "count"});
    m.push_back({"vmm.shadow_cache_misses", double(o.vm.shadowCacheMisses),
                 "count"});
    m.push_back({"vmm.modify_faults", double(o.vm.modifyFaults), "count"});
    m.push_back({"vmm.kcall_ios", double(o.vm.kcallIos), "count"});
    m.push_back({"vmm.disk_batches", double(o.vm.diskKcallBatches),
                 "count"});

    for (int c = 0; c < kNumCycleCategories; ++c) {
        m.push_back({"sim.cycles." +
                         std::string(cycleCategoryName(
                             static_cast<CycleCategory>(c))),
                     static_cast<double>(all.cycles[c]) / 1e6, "Mcycles"});
    }
    m.push_back({"sim.vm_bare_pct",
                 o.bare.instructions != 0
                     ? 100.0 * ratio(double(o.bare.busyCycles()),
                                     double(o.virt.busyCycles()))
                     : 0,
                 "%"});

    m.push_back({"golden.seal_ms", setupMs("golden.seal"), "ms"});
    const double forks = static_cast<double>(
        std::max<std::size_t>(1, o.vms.size()));
    m.push_back({"golden.fork_us_per_vm",
                 fleet ? over([&](const LayerRound &l) {
                     return selfMs(l, "fleet.add_member") * 1000.0 / forks;
                 })
                       : 0,
                 "us"});
    m.push_back({"golden.pages_touched_per_vm", o.pagesTouchedPerVm,
                 "pages"});
    m.push_back({"golden.private_kib_per_vm", o.privateKibPerVm, "KiB"});

    m.push_back({"fleet.run_s", over([](const LayerRound &l) {
                     return l.o.fleetWallS;
                 }),
                 "s"});
    m.push_back({"fleet.cpu_s", over([](const LayerRound &l) {
                     return l.o.fleetCpuS;
                 }),
                 "s"});
    m.push_back({"fleet.idle_core_s", over([](const LayerRound &l) {
                     return l.o.fleetWorkers * l.o.fleetWallS -
                            l.o.fleetCpuS;
                 }),
                 "s"});
    m.push_back({"fleet.workers", double(o.fleetWorkers), "count"});

    m.push_back({"async.disk_batches", double(o.vm.asyncDiskBatches),
                 "count"});
    m.push_back({"async.guest_instr_per_batch",
                 ratio(double(o.virt.instructions),
                       double(o.vm.asyncDiskBatches)),
                 "instr"});

    m.push_back({"dev.console_bytes", double(o.consoleBytes), "bytes"});
    m.push_back({"dev.disk_blocks", double(o.diskBlocks), "blocks"});
    m.push_back({"trace.overhead_pct", overhead_pct, "%"});
    return m;
}

// ---------------------------------------------------------------------------
// The measured run
// ---------------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    bool selftest = false;
};

const char *
tierName(ExecTier t)
{
    switch (t) {
      case ExecTier::Reference: return "ref";
      case ExecTier::Fast: return "fast";
      case ExecTier::Blocks: return "blocks";
      case ExecTier::Threaded: return "threaded";
    }
    return "?";
}

int
measure(const Options &opt)
{
    std::unique_ptr<BenchWorkload> w =
        makeWorkload(opt.workload, opt.seed, false);
    if (!w) {
        std::fprintf(stderr, "vbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    Tracer tr(opt.trace, opt.workload, kProcessStart);
    Ctx ctx(tr);
    {
        Scope s(tr, "setup");
        w->setup(ctx);
        w->prepare(ctx);
    }
    const double setup_s = wallS();

    std::vector<std::vector<PhaseTime>> untraced, traced_rounds;
    auto typ = [&](const std::vector<std::vector<PhaseTime>> &rounds,
                   double PhaseTime::*field) {
        return typicalRound(rounds, field);
    };
    std::vector<LayerRound> layers;
    std::vector<std::string> failures;
    std::optional<RoundOutcome> baseline;
    std::uint64_t attempted = 0, failed = 0;
    const double phase_start = wallS();
    for (int round = 0;; ++round) {
        // Traced runs alternate untraced and traced rounds, so the
        // tracing overhead is measured under the same host load.
        const bool traced = opt.trace && round % 2 == 1;
        tr.setEnabled(traced);
        ctx.chunked = traced;
        // A lone busy thread stays on one CPU, and a shared host's CPUs
        // slow down independently for seconds at a time: every round
        // moves to the next CPU, so the fastest round samples every
        // CPU.  (Threads the library starts, the fleet's async-disk
        // engines among them, inherit the mask.)
        pinToCpu(round);
        const double round_us = microsSince(kProcessStart);
        const int round_span = tr.begin("round");
        if (round > 0) {
            Scope s(tr, "prepare");
            w->prepare(ctx);
        }
        ctx.phases.clear();
        {
            Scope s(tr, "run");
            w->run(ctx);
        }
        RoundOutcome o = w->finish(ctx);
        tr.end(round_span);
        // Return freed heap between rounds, so the peak RSS is one
        // round's footprint, not fragmentation piled up over however
        // many rounds the host's speed allowed.
        malloc_trim(0);

        attempted += o.jobs;
        failed += o.failedJobs;
        for (const std::string &f : o.failures)
            failures.push_back("round " + std::to_string(round) + ": " + f);
        if (!baseline) {
            baseline = o;
        } else if (o.machines != baseline->machines ||
                   o.vms != baseline->vms) {
            failures.push_back(
                "round " + std::to_string(round) +
                (traced ? ": traced (chunked) run's architectural Stats "
                          "differ from the untraced run's"
                        : ": architectural Stats differ between rounds"));
        }
        if (traced) {
            traced_rounds.push_back(ctx.phases);
            layers.push_back({tr.selfTimeByName(round_us), std::move(o)});
        } else {
            untraced.push_back(ctx.phases);
        }
        const bool enough = !opt.trace || !layers.empty();
        if (enough && wallS() - phase_start >= opt.seconds)
            break;
    }
    tr.setEnabled(opt.trace);

    // Tier and worker count, printed with every result.
    {
        RealMachine probe(MachineConfig{});
        std::printf("# vbench workload=%s seed=%llu tier=%s host_cpus=%d "
                    "rounds=%zu %s\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed),
                    tierName(probe.cpu().execTier()), hostCpus(),
                    untraced.size() + traced_rounds.size(),
                    w->describe().c_str());
        if (probe.cpu().execTier() != ExecTier::Threaded)
            failures.push_back("execution tier is not the default "
                               "(threaded)");
    }
    for (const std::string &f : failures)
        std::printf("# CHECK FAILED: %s\n", f.c_str());

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", setup_s, "s"},
            {"guest_iters_per_s",
             w->iterations() / typ(untraced, &PhaseTime::wall), "iter/s"},
            {"cpu_s", typ(untraced, &PhaseTime::cpu), "s"},
            {"sim_mcycles",
             static_cast<double>(baseline->busyCycles()) / 1e6, "Mcycles"},
            {"peak_rss_mib", peakRssMib(), "MiB"},
        };
    } else {
        const double overhead =
            100.0 * (typ(traced_rounds, &PhaseTime::wall) /
                         typ(untraced, &PhaseTime::wall) -
                     1.0);
        metrics = layerMetrics(tr, layers, overhead);
        if (!opt.traceOut.empty() && !tr.writeChromeJson(opt.traceOut)) {
            std::fprintf(stderr, "vbench: cannot write %s\n",
                         opt.traceOut.c_str());
            return 1;
        }
    }
    printResult(failures.empty(), attempted, failed, metrics);
    return 0;
}

// ---------------------------------------------------------------------------
// Self-test: tiny sizes, every check on, every check shown failing.
// ---------------------------------------------------------------------------

template <typename W>
bool
runOnce(W &w, const char *name)
{
    Tracer tr(false, name, kProcessStart);
    Ctx ctx(tr);
    w.setup(ctx);
    w.prepare(ctx);
    w.run(ctx);
    const RoundOutcome o = w.finish(ctx);
    for (const std::string &f : o.failures)
        std::printf("  %s: %s\n", name, f.c_str());
    const bool ok = o.failures.empty() && o.failedJobs == 0;
    std::printf("%-4s %s runs clean at tiny size\n", ok ? "ok" : "FAIL",
                name);
    return ok;
}

/** A corrupted result must be rejected. */
bool
rejects(const char *what, const std::vector<std::string> &failures)
{
    const bool ok = !failures.empty();
    std::printf("%-4s rejects %s%s%s\n", ok ? "ok" : "FAIL", what,
                ok ? ": " : "", ok ? failures.front().c_str() : "");
    return ok;
}

int
selftest()
{
    bool ok = true;

    PaperMix pm(7, true);
    ok &= runOnce(pm, "paper_mix");
    {
        PaperMixResult r = pm.last();
        r.vm.disk[5 * 512 + 3] ^= 0x40;
        ok &= rejects("a flipped disk byte",
                      checkPaperMix(pm.config(), r));
        r = pm.last();
        r.vm.syscalls += 1;
        ok &= rejects("a system-service count off by one",
                      checkPaperMix(pm.config(), r));
        r = pm.last();
        r.bare.console += "x";
        ok &= rejects("an extra console byte",
                      checkPaperMix(pm.config(), r));
        r = pm.last();
        r.vmBusy = r.bareBusy;
        ok &= rejects("VM busy cycles equal to bare",
                      checkPaperMix(pm.config(), r));
    }

    ExitStorm es(7, true);
    ok &= runOnce(es, "exit_storm");
    {
        ExitStormResult r = es.last();
        r.trap.emulationTraps += 1;
        ok &= rejects("a trap count off by one",
                      checkExitStorm(es.spec(), r));
        r = es.last();
        r.sw.contextSwitches -= 1;
        ok &= rejects("a missing context switch",
                      checkExitStorm(es.spec(), r));
        r = es.last();
        r.ioDisk[100] ^= 1;
        ok &= rejects("a flipped I/O-loop disk byte",
                      checkExitStorm(es.spec(), r));
        r = es.last();
        r.pages.completed -= 1;
        ok &= rejects("an unfinished PageStress process",
                      checkExitStorm(es.spec(), r));
    }

    ForkFleet ff(7, true);
    ok &= runOnce(ff, "fork_fleet");
    {
        ForkFleetResult r = ff.last();
        r.members.pop_back();
        r.digests.pop_back();
        ok &= rejects("a missing fleet member",
                      checkForkFleet(ff.config(), ff.members(), r));
        r = ff.last();
        r.digests[1].disk ^= 1;
        ok &= rejects("a member digest that differs",
                      checkForkFleet(ff.config(), ff.members(), r));
        r = ff.last();
        r.pagesTouched[0] = r.imagePages;
        ok &= rejects("a member that copied the whole image",
                      checkForkFleet(ff.config(), ff.members(), r));
    }
    std::printf("selftest %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--selftest") {
            opt.selftest = true;
        } else if (a == "--workload" && (v = value())) {
            opt.workload = v;
        } else if (a == "--seed" && (v = value())) {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds" && (v = value())) {
            opt.seconds = std::strtod(v, nullptr);
        } else if (a == "--trace" && (v = value())) {
            opt.trace = std::strcmp(v, "0") != 0;
        } else if (a == "--trace-out" && (v = value())) {
            opt.traceOut = v;
        } else {
            return false;
        }
    }
    return opt.selftest || !opt.workload.empty();
}

} // namespace
} // namespace vbench

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "vbench: built without NDEBUG (assertions on); "
                         "refusing to measure\n");
    return 2;
#endif
    // A fixed environment: the library reads these at machine
    // construction, so clearing them here pins the default tier, no
    // fault plan and kernel CoW for every run.
    for (const char *var :
         {"VVAX_FAULT_PLAN", "VVAX_EXEC_TIER", "VVAX_REFERENCE_PATH",
          "VVAX_NO_TRACE_LINKS", "VVAX_TRACE_THRESHOLD",
          "VVAX_GOLDEN_EAGER", "VVAX_DUMP_HOT_BLOCKS"})
        unsetenv(var);
    // Two malloc arenas, not one per thread: with an async-disk
    // thread per fleet member, per-thread arenas made
    // fork_fleet's peak RSS wander by 15 % between identical runs.
    mallopt(M_ARENA_MAX, 2);

    vbench::Options opt;
    if (!vbench::parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: vbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--trace-out FILE]\n"
                     "       vbench --selftest\n");
        return 2;
    }
    return opt.selftest ? vbench::selftest() : vbench::measure(opt);
}
