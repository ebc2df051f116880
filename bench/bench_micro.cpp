// Microbenchmarks (google-benchmark): throughput of the hot paths — CA
// stepping, FFT/periodogram, event scheduling, packet copies, and the
// full MAC frame exchange.
//
// For machine-readable numbers use google-benchmark's own output:
// `bench_micro --benchmark_out=<file> --benchmark_out_format=json`.
// BENCH_micro.json at the repo root is frozen history; benchmark/ holds
// the live end-to-end perf record (benchmark/README.md).
#include <benchmark/benchmark.h>

#include <complex>
#include <vector>

#include "analysis/fft.h"
#include "analysis/spectrum.h"
#include "core/nas_lane.h"
#include "mac/wifi_mac.h"
#include "netsim/packet_log.h"
#include "netsim/scheduler.h"
#include "obs/stats_registry.h"
#include "phy/channel.h"
#include "scenario/table1.h"

namespace {

using namespace cavenet;

void BM_NasLaneStep(benchmark::State& state) {
  ca::NasParams params;
  params.lane_length = state.range(0);
  params.slowdown_p = 0.3;
  ca::NasLane lane(params, params.lane_length / 4,
                   ca::InitialPlacement::kRandom, Rng(1));
  for (auto _ : state) {
    lane.step();
    benchmark::DoNotOptimize(lane.average_velocity());
  }
  state.SetItemsProcessed(state.iterations() * lane.vehicle_count());
}
BENCHMARK(BM_NasLaneStep)->Arg(400)->Arg(4000)->Arg(40000)->Arg(400000);

void BM_NasLaneStepDensity(benchmark::State& state) {
  // Density sweep at fixed lane length: the gap/velocity passes touch
  // every vehicle, so ns/op scales with rho while ns/vehicle should
  // stay flat. Arg is density in percent of lane_length.
  ca::NasParams params;
  params.lane_length = 40000;
  params.slowdown_p = 0.3;
  const auto vehicles = params.lane_length * state.range(0) / 100;
  ca::NasLane lane(params, vehicles, ca::InitialPlacement::kRandom, Rng(1));
  for (auto _ : state) {
    lane.step();
    benchmark::DoNotOptimize(lane.average_velocity());
  }
  state.SetItemsProcessed(state.iterations() * lane.vehicle_count());
}
BENCHMARK(BM_NasLaneStepDensity)->Arg(5)->Arg(15)->Arg(50);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::complex<double>> data(n);
  Rng rng(2);
  for (auto& x : data) x = rng.normal();
  for (auto _ : state) {
    auto copy = data;
    analysis::fft_in_place(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fft)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_Periodogram(benchmark::State& state) {
  std::vector<double> signal(8192);
  Rng rng(3);
  for (auto& x : signal) x = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::periodogram(signal));
  }
}
BENCHMARK(BM_Periodogram);

void BM_SchedulerChurn(benchmark::State& state) {
  netsim::Scheduler scheduler;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      scheduler.schedule_at(SimTime::nanoseconds(t + (i * 37) % 1000),
                            [] {});
    }
    while (scheduler.run_one()) {
    }
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SchedulerChurn);

void BM_PacketLogRecord(benchmark::State& state) {
  // Per-event logging cost. Type names are interned, so the steady state
  // is an O(log n) set lookup plus a push_back — no heap allocation per
  // record (before interning, every record built a std::string).
  netsim::PacketLog log;
  log.set_max_entries(1u << 16);
  std::int64_t t = 0;
  for (auto _ : state) {
    if (log.size() + 64 >= log.max_entries()) {
      state.PauseTiming();
      log.clear();
      state.ResumeTiming();
    }
    for (int i = 0; i < 64; ++i) {
      log.record(SimTime::nanoseconds(t + i), netsim::PacketLog::Event::kSend,
                 netsim::PacketLog::Layer::kMac, 4,
                 static_cast<std::uint64_t>(i), i % 2 ? "cbr" : "aodv-rreq",
                 512);
    }
    t += 64;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PacketLogRecord);

void BM_StatsCounterInc(benchmark::State& state) {
  // The hot-path stats increment: a single add through a pointer, both
  // bound and unbound (discard-cell) handles.
  obs::StatsRegistry registry;
  obs::Counter bound = registry.counter("bench.counter");
  obs::Counter unbound;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      bound.inc();
      unbound.inc();
    }
  }
  benchmark::DoNotOptimize(bound.value());
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_StatsCounterInc);

void BM_PacketCopy(benchmark::State& state) {
  netsim::Packet packet(512);
  mac::MacHeader mac_header;
  routing::DataHeader data_header;
  packet.push(data_header);
  packet.push(mac_header);
  for (auto _ : state) {
    netsim::Packet copy = packet;
    benchmark::DoNotOptimize(copy.size_bytes());
  }
}
BENCHMARK(BM_PacketCopy);

void BM_MacUnicastExchange(benchmark::State& state) {
  // Full DATA + ACK exchange between two stations per iteration.
  netsim::Simulator sim(4);
  phy::Channel channel(sim, std::make_unique<phy::TwoRayGroundModel>());
  netsim::StaticMobility ma({0, 0});
  netsim::StaticMobility mb({150, 0});
  phy::WifiPhy pa(sim, 0, &ma);
  phy::WifiPhy pb(sim, 1, &mb);
  phy::Channel::Attachment la = channel.attach(&pa);
  phy::Channel::Attachment lb = channel.attach(&pb);
  mac::WifiMac a(sim, pa, {}, 0);
  mac::WifiMac b(sim, pb, {}, 1);
  b.set_receive_callback([](netsim::Packet, netsim::NodeId) {});
  for (auto _ : state) {
    a.send(netsim::Packet(512), 1);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MacUnicastExchange);

void BM_Table1SecondOfSimulation(benchmark::State& state) {
  // Cost of one simulated second of the full 30-node Table-I scenario.
  for (auto _ : state) {
    state.PauseTiming();
    scenario::TableIConfig config;
    config.protocol = scenario::Protocol::kDymo;
    config.duration_s = 5.0;
    config.traffic_start_s = 1.0;
    config.traffic_stop_s = 4.0;
    state.ResumeTiming();
    benchmark::DoNotOptimize(scenario::run_table1(config));
  }
}
BENCHMARK(BM_Table1SecondOfSimulation)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
