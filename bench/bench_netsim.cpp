//===- bench/bench_netsim.cpp ---------------------------------------------==//
//
// Connection-scaling matrix for the netsim reactor: every throughput cell
// is one (connections, shards) pair driven by the open-loop load
// generator, timed self-contained and emitted as JSON that
// tools/check.sh --bench-smoke merges into BENCH_netsim.json and gates
// against bench/BASELINE_netsim.json.
//
// Cells:
//   netsim/echo/conns=C/shards=S   unpaced echo flood over C concurrent
//       connections on an S-shard reactor (C up to 100000 in the default
//       matrix, 1000000 behind --huge — the thread-per-connection design
//       this replaced topped out three orders of magnitude lower);
//       items_per_second is completed requests per wall second
//   netsim/footprint/conns=C       per-connection memory: RSS delta for
//       C held-open connections; items_per_second is connection-open
//       throughput, rss_per_conn_bytes/rss_total_bytes ride along
//   netsim/latency/rate=R/conns=C/shards=S   fixed-rate open-loop run;
//       items_per_second is sustained requests/sec, and the cell carries
//       coordinated-omission-safe p50/p99/p999 latency (ns) as extra
//       fields
//
// Every cell embeds the host-parallelism snapshot (num_cpus /
// threads_used / serial_host) with threads_used set to that cell's shard
// count. On a single-core host the shard sweep measures reactor
// overhead, not parallel speedup — same caveat as the stream scaling
// matrix.
//
// Flags: --quick (fewer requests, short min-time — the `ctest -L bench`
// smoke), --huge (adds the conns=1000000 cell when address-space rlimits
// and MemAvailable allow; never run by check.sh), --min-time=SECONDS
// (per-cell measure budget, default 0.3), --out=PATH (default stdout).
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "netsim/LoadGen.h"
#include "support/Clock.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace ren;
using namespace ren::netsim;

namespace {

struct Cell {
  std::string Name;
  double OpsPerSecond = 0.0;
  double RealTimeNs = 0.0;
  std::string ExtraJson; ///< preformatted ", \"key\": value" pairs
};

double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

Bytes echoHandler(const Bytes &Request) { return Request; }

/// Resident set size from /proc/self/statm (bytes); 0 if unreadable.
uint64_t currentRssBytes() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  int Got = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  if (Got != 2)
    return 0;
  long Page = sysconf(_SC_PAGESIZE);
  return Resident * static_cast<uint64_t>(Page > 0 ? Page : 4096);
}

/// MemAvailable from /proc/meminfo (bytes); 0 if unreadable.
uint64_t memAvailableBytes() {
  std::FILE *F = std::fopen("/proc/meminfo", "r");
  if (!F)
    return 0;
  char Line[256];
  uint64_t Avail = 0;
  while (std::fgets(Line, sizeof(Line), F)) {
    unsigned long long Kb = 0;
    if (std::sscanf(Line, "MemAvailable: %llu kB", &Kb) == 1) {
      Avail = Kb * 1024;
      break;
    }
  }
  std::fclose(F);
  return Avail;
}

/// The host snapshot is per-process; threads_used is per-cell (its shard
/// count), so every cell's JSON is self-describing.
std::string hostExtra(unsigned ShardsUsed) {
  static bench::ParallelHostInfo Host = bench::parallelHostInfo(0);
  char Extra[128];
  std::snprintf(Extra, sizeof(Extra),
                ", \"num_cpus\": %u, \"threads_used\": %u, "
                "\"serial_host\": %s",
                Host.HardwareConcurrency, ShardsUsed,
                Host.SerialHost ? "true" : "false");
  return Extra;
}

/// One throughput cell: C connections on an S-shard server, unpaced
/// open-loop echo. Repeats whole LoadGen runs until MinTime and averages.
Cell echoCell(unsigned Conns, unsigned Shards, uint64_t Requests,
              double MinTime) {
  Server Srv("bench-echo", echoHandler, Shards);
  LoadGenOptions Opts;
  Opts.Requests = Requests;
  Opts.Connections = Conns;
  Opts.MaxInFlight = 512;
  Opts.PayloadBytes = 32;

  LoadGen(Srv, Opts).run(); // warmup: faults pools, spins up shards

  uint64_t Completed = 0, Nanos = 0;
  unsigned Runs = 0;
  double Start = nowSeconds();
  do {
    LoadReport R = LoadGen(Srv, Opts).run();
    Completed += R.Completed;
    Nanos += R.ElapsedNanos;
    ++Runs;
  } while (nowSeconds() - Start < MinTime);

  Cell C;
  C.Name = "netsim/echo/conns=" + std::to_string(Conns) +
           "/shards=" + std::to_string(Shards);
  C.OpsPerSecond =
      static_cast<double>(Completed) * 1e9 / static_cast<double>(Nanos);
  C.RealTimeNs = static_cast<double>(Nanos) / Runs;
  C.ExtraJson = hostExtra(Shards);
  return C;
}

/// The footprint cell: RSS delta for \p Conns held-open connections,
/// measured on a quiet single-shard server. items_per_second is
/// connection-open throughput; rss_per_conn_bytes is the headline number
/// (informational — noisy allocators round it up, never down, so a
/// regression shows as growth).
Cell footprintCell(unsigned Conns) {
  Server Srv("bench-footprint", echoHandler, 1);
  uint64_t Before = currentRssBytes();
  double Start = nowSeconds();
  std::vector<std::unique_ptr<ClientConnection>> Pool;
  Pool.reserve(Conns);
  for (unsigned I = 0; I < Conns; ++I)
    Pool.push_back(Srv.connect());
  double OpenSeconds = nowSeconds() - Start;
  uint64_t After = currentRssBytes();
  uint64_t Delta = After > Before ? After - Before : 0;

  Cell C;
  C.Name = "netsim/footprint/conns=" + std::to_string(Conns);
  C.OpsPerSecond = static_cast<double>(Conns) / OpenSeconds;
  C.RealTimeNs = OpenSeconds * 1e9;
  char Extra[160];
  std::snprintf(Extra, sizeof(Extra),
                ", \"rss_total_bytes\": %llu, \"rss_per_conn_bytes\": %.1f",
                static_cast<unsigned long long>(Delta),
                static_cast<double>(Delta) / Conns);
  C.ExtraJson = Extra + hostExtra(1);
  for (auto &Conn : Pool)
    Conn->close();
  return C;
}

/// Resource gate for the --huge (10^6 connections) cell: the run needs
/// roughly 2 GiB of headroom (connection objects + registry + frames in
/// flight). Checks address-space/data rlimits and MemAvailable.
bool hugeFeasible(std::string &Why) {
  const uint64_t Need = 2ull << 30;
  for (auto Res : {RLIMIT_AS, RLIMIT_DATA}) {
    struct rlimit RL;
    if (getrlimit(Res, &RL) == 0 && RL.rlim_cur != RLIM_INFINITY &&
        static_cast<uint64_t>(RL.rlim_cur) < Need) {
      Why = Res == RLIMIT_AS ? "RLIMIT_AS below 2 GiB"
                             : "RLIMIT_DATA below 2 GiB";
      return false;
    }
  }
  uint64_t Avail = memAvailableBytes();
  if (Avail != 0 && Avail < Need) {
    Why = "MemAvailable below 2 GiB";
    return false;
  }
  return true;
}

/// The latency cell: a fixed-rate run whose p50/p99/p999 ride along as
/// extra JSON fields (informational — the gate compares throughput).
Cell latencyCell(double Rate, unsigned Conns, unsigned Shards,
                 uint64_t Requests) {
  Server Srv("bench-latency", echoHandler, Shards);
  LoadGenOptions Opts;
  Opts.Requests = Requests;
  Opts.RatePerSec = Rate;
  Opts.Connections = Conns;
  Opts.MaxInFlight = 1024;
  Opts.PayloadBytes = 32;
  LoadReport R = LoadGen(Srv, Opts).run();

  Cell C;
  C.Name = "netsim/latency/rate=" +
           std::to_string(static_cast<unsigned>(Rate)) +
           "/conns=" + std::to_string(Conns) +
           "/shards=" + std::to_string(Shards);
  C.OpsPerSecond = R.sustainedRps();
  C.RealTimeNs = static_cast<double>(R.ElapsedNanos);
  char Extra[256];
  std::snprintf(Extra, sizeof(Extra),
                ", \"p50_ns\": %llu, \"p99_ns\": %llu, \"p999_ns\": %llu, "
                "\"max_send_delay_ns\": %llu",
                static_cast<unsigned long long>(R.P50),
                static_cast<unsigned long long>(R.P99),
                static_cast<unsigned long long>(R.P999),
                static_cast<unsigned long long>(R.MaxSendDelayNanos));
  C.ExtraJson = Extra + hostExtra(Shards);
  return C;
}

void emitJson(std::FILE *Out, const std::vector<Cell> &Cells,
              const bench::ParallelHostInfo &Host) {
  std::fputs("{\n  \"context\": {\n", Out);
  std::fprintf(Out, "    \"num_cpus\": %u,\n", Host.HardwareConcurrency);
  std::fprintf(Out, "    \"threads_used\": %u,\n", Host.ThreadsUsed);
  std::fprintf(Out, "    \"serial_host\": %s\n",
               Host.SerialHost ? "true" : "false");
  std::fputs("  },\n  \"benchmarks\": [\n", Out);
  for (size_t I = 0; I < Cells.size(); ++I)
    std::fprintf(Out,
                 "    {\"name\": \"%s\", \"items_per_second\": %.6g, "
                 "\"real_time\": %.6g%s}%s\n",
                 Cells[I].Name.c_str(), Cells[I].OpsPerSecond,
                 Cells[I].RealTimeNs, Cells[I].ExtraJson.c_str(),
                 I + 1 < Cells.size() ? "," : "");
  std::fputs("  ]\n}\n", Out);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  bool Huge = false;
  double MinTime = 0.3;
  std::string OutPath;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--quick") == 0)
      Quick = true;
    else if (std::strcmp(Arg, "--huge") == 0)
      Huge = true;
    else if (std::strncmp(Arg, "--min-time=", 11) == 0)
      MinTime = std::atof(Arg + 11);
    else if (std::strncmp(Arg, "--out=", 6) == 0)
      OutPath = Arg + 6;
    else {
      std::fprintf(
          stderr,
          "usage: %s [--quick] [--huge] [--min-time=SECONDS] [--out=PATH]\n",
          Argv[0]);
      return 2;
    }
  }
  if (Quick)
    MinTime = std::min(MinTime, 0.02);

  const std::vector<unsigned> Conns = {64, 1024, 10000};
  const std::vector<unsigned> Shards = {1, 2, 4};
  // The 10^5 tier runs a narrower shard sweep: per-run connection churn
  // dominates at 4 shards without changing the story.
  const std::vector<unsigned> BigShards = {1, 2};
  unsigned MaxShards = Shards.back();

  bench::ParallelHostInfo Host = bench::parallelHostInfo(MaxShards);

  std::vector<Cell> Cells;
  // Footprint first: the heap substrate's slabs never shrink, so the RSS
  // delta only means "bytes per connection" while the slabs are cold —
  // after any echo cell has churned 10^5 connections the same opens are
  // served from warm slabs and the delta collapses to noise.
  Cells.push_back(footprintCell(/*Conns=*/100000));
  for (unsigned C : Conns) {
    // Every connection sees traffic: at least one request per connection,
    // more on the small matrices so the cell measures steady throughput
    // rather than connection setup.
    uint64_t Requests =
        Quick ? std::max<uint64_t>(C, 1000) : std::max<uint64_t>(2 * C, 8000);
    for (unsigned S : Shards)
      Cells.push_back(echoCell(C, S, Requests, MinTime));
  }
  for (unsigned S : BigShards)
    Cells.push_back(echoCell(/*Conns=*/100000, S,
                             /*Requests=*/Quick ? 100000 : 200000, MinTime));
  if (Huge) {
    std::string Why;
    if (hugeFeasible(Why)) {
      // Footprint before echo for the same cold-slab reason as above.
      Cells.push_back(footprintCell(/*Conns=*/1000000));
      Cells.push_back(echoCell(/*Conns=*/1000000, /*Shards=*/2,
                               /*Requests=*/1000000, /*MinTime=*/0.0));
    } else {
      std::fprintf(stderr, "skipping --huge cells: %s\n", Why.c_str());
    }
  }
  Cells.push_back(latencyCell(/*Rate=*/20000.0, /*Conns=*/256,
                              /*Shards=*/2,
                              /*Requests=*/Quick ? 2000 : 10000));

  std::FILE *Out = stdout;
  if (!OutPath.empty()) {
    Out = std::fopen(OutPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "cannot open --out file '%s'\n", OutPath.c_str());
      return 1;
    }
  }
  emitJson(Out, Cells, Host);
  if (Out != stdout)
    std::fclose(Out);

  std::fprintf(stderr,
               "netsim matrix: %zu cells (max %u connections), "
               "threads_used=%u, num_cpus=%u%s\n",
               Cells.size(), Huge ? 1000000u : 100000u, MaxShards,
               Host.HardwareConcurrency,
               Host.SerialHost ? " (serial host: shard sweep measures "
                                 "reactor overhead, not scaling)"
                               : "");
  return 0;
}
