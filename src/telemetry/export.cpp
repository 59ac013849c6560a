#include "telemetry/export.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <string_view>
#include <tuple>

#include "telemetry/comm_recorder.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/json.h"

namespace mmd::telemetry {

namespace {

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

}  // namespace

namespace {

const char* comm_slice_name(CommOp op) {
  switch (op) {
    case CommOp::kSend: return "comm.send";
    case CommOp::kRecv: return "comm.recv";
    case CommOp::kIrecvPost: return "comm.irecv";
    case CommOp::kWait: return "comm.wait";
    case CommOp::kPut: return "comm.put";
    case CommOp::kCollective: return "comm.collective";
  }
  return "comm.?";
}

/// (src, dst, tag, per-triple sequence) -> flow id. Mailbox delivery keeps
/// same-triple messages FIFO, so ordinal matching reconstructs the pairing.
using FlowKey = std::tuple<int, int, int, std::uint64_t>;

std::map<FlowKey, std::uint64_t> assign_flow_ids(const CommRecorder& rec) {
  std::map<FlowKey, std::uint64_t> ids;
  std::uint64_t next_id = 1;
  for (int rank = 0; rank < rec.nranks(); ++rank) {
    std::map<std::tuple<int, int, int>, std::uint64_t> seq;
    for (const CommEvent& ev : rec.rank_log(rank).events) {
      if (ev.op != CommOp::kSend || ev.peer < 0) continue;
      const auto triple = std::make_tuple(rank, ev.peer, ev.tag);
      ids.emplace(std::tuple_cat(triple, std::make_tuple(seq[triple]++)),
                  next_id++);
    }
  }
  return ids;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer) {
  write_chrome_trace(os, tracer, nullptr);
}

void write_chrome_trace(std::ostream& os, const Tracer& tracer,
                        const CommRecorder* recorder) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (int i = 0; i < tracer.num_tracks(); ++i) {
    const Tracer::Track* t = tracer.track(i);
    if (t == nullptr || t->recorded == 0) continue;
    // Metadata: pid = rank, tid = lane, labelled for the trace viewer.
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << t->rank
       << ",\"tid\":0,\"args\":{\"name\":\"rank " << t->rank << "\"}}";
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << t->rank
       << ",\"tid\":" << t->lane << ",\"args\":{\"name\":\""
       << (t->lane == Tracer::kMasterLane
               ? std::string("master")
               : "cpe " + std::to_string(t->lane - 1))
       << "\"}}";
    for (std::size_t e = 0; e < t->live(); ++e) {
      const TraceEvent& ev = t->ring[e];
      sep();
      os << "{\"ph\":\"X\",\"name\":";
      util::json::write_string(os, ev.name != nullptr ? ev.name : "?");
      os << ",\"pid\":" << t->rank << ",\"tid\":" << t->lane << ",\"ts\":" << us(ev.t0_ns)
         << ",\"dur\":" << us(ev.t1_ns - ev.t0_ns);
      if (ev.dma_ops != 0 || ev.dma_bytes != 0) {
        os << ",\"args\":{\"dma_ops\":" << ev.dma_ops
           << ",\"dma_bytes\":" << ev.dma_bytes << "}";
      }
      os << "}";
    }
  }
  std::uint64_t comm_stored = 0;
  std::uint64_t comm_dropped = 0;
  if (recorder != nullptr) {
    comm_stored = recorder->total_recorded() - recorder->total_dropped();
    comm_dropped = recorder->total_dropped();
    const std::map<FlowKey, std::uint64_t> flow_ids = assign_flow_ids(*recorder);
    for (int rank = 0; rank < recorder->nranks(); ++rank) {
      std::map<std::tuple<int, int, int>, std::uint64_t> send_seq;
      std::map<std::tuple<int, int, int>, std::uint64_t> recv_seq;
      for (const CommEvent& ev : recorder->rank_log(rank).events) {
        // Every recorded op is a small slice on the rank's master lane...
        sep();
        os << "{\"ph\":\"X\",\"name\":\"" << comm_slice_name(ev.op)
           << "\",\"cat\":\"comm\",\"pid\":" << rank
           << ",\"tid\":" << Tracer::kMasterLane << ",\"ts\":" << us(ev.t0_ns)
           << ",\"dur\":" << us(ev.t1_ns - ev.t0_ns) << ",\"args\":{\"peer\":"
           << ev.peer << ",\"tag\":" << ev.tag << ",\"bytes\":" << ev.bytes
           << "}}";
        // ...and each matched send/receive pair a flow arrow between ranks.
        if (ev.peer < 0) continue;
        if (ev.op == CommOp::kSend) {
          const auto triple = std::make_tuple(rank, ev.peer, ev.tag);
          const auto it = flow_ids.find(
              std::tuple_cat(triple, std::make_tuple(send_seq[triple]++)));
          if (it == flow_ids.end()) continue;
          sep();
          os << "{\"ph\":\"s\",\"id\":" << it->second
             << ",\"name\":\"msg\",\"cat\":\"comm\",\"pid\":" << rank
             << ",\"tid\":" << Tracer::kMasterLane << ",\"ts\":" << us(ev.t0_ns)
             << "}";
        } else if (ev.op == CommOp::kRecv || ev.op == CommOp::kWait) {
          const auto triple = std::make_tuple(ev.peer, rank, ev.tag);
          const auto it = flow_ids.find(
              std::tuple_cat(triple, std::make_tuple(recv_seq[triple]++)));
          if (it == flow_ids.end()) continue;
          sep();
          os << "{\"ph\":\"f\",\"bp\":\"e\",\"id\":" << it->second
             << ",\"name\":\"msg\",\"cat\":\"comm\",\"pid\":" << rank
             << ",\"tid\":" << Tracer::kMasterLane << ",\"ts\":" << us(ev.t1_ns)
             << "}";
        }
      }
    }
  }
  os << "],\"otherData\":{\"dropped_events\":" << tracer.total_dropped();
  if (recorder != nullptr) {
    os << ",\"comm_events\":" << comm_stored
       << ",\"comm_dropped\":" << comm_dropped;
  }
  os << "}}\n";
}

namespace {

void write_slot(std::ostream& os, const MetricsRegistry::RankSlot& slot) {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : slot.counters) {
    if (!first) os << ",";
    first = false;
    util::json::write_string(os, name);
    os << ":" << v;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : slot.gauges) {
    if (!first) os << ",";
    first = false;
    util::json::write_string(os, name);
    os << ":" << v;
  }
  os << "},\"distributions\":{";
  first = true;
  for (const auto& [name, s] : slot.dists) {
    if (!first) os << ",";
    first = false;
    util::json::write_string(os, name);
    os << ":{\"count\":" << s.count() << ",\"mean\":" << s.mean()
       << ",\"min\":" << s.min() << ",\"max\":" << s.max()
       << ",\"variance\":" << s.variance() << "}";
  }
  os << "}}";
}

}  // namespace

void write_metrics_json(std::ostream& os, const MetricsRegistry& registry) {
  const MetricsRegistry::Aggregate agg = registry.aggregate();
  os << "{\"nranks\":" << registry.nranks() << ",\"aggregate\":{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : agg.counters) {
    if (!first) os << ",";
    first = false;
    util::json::write_string(os, name);
    os << ":" << v;
  }
  os << "},\"gauge_max\":{";
  first = true;
  for (const auto& [name, v] : agg.gauge_max) {
    if (!first) os << ",";
    first = false;
    util::json::write_string(os, name);
    os << ":" << v;
  }
  os << "},\"gauge_sum\":{";
  first = true;
  for (const auto& [name, v] : agg.gauge_sum) {
    if (!first) os << ",";
    first = false;
    util::json::write_string(os, name);
    os << ":" << v;
  }
  os << "},\"distributions\":{";
  first = true;
  for (const auto& [name, s] : agg.dists) {
    if (!first) os << ",";
    first = false;
    util::json::write_string(os, name);
    os << ":{\"count\":" << s.count() << ",\"mean\":" << s.mean()
       << ",\"min\":" << s.min() << ",\"max\":" << s.max()
       << ",\"variance\":" << s.variance() << "}";
  }
  os << "}},\"ranks\":[";
  for (int r = 0; r < registry.nranks(); ++r) {
    if (r > 0) os << ",";
    os << "\n";
    write_slot(os, registry.rank(r));
  }
  os << "]}\n";
}

bool write_chrome_trace_file(const std::string& path, const Tracer& tracer) {
  return write_chrome_trace_file(path, tracer, nullptr);
}

bool write_chrome_trace_file(const std::string& path, const Tracer& tracer,
                             const CommRecorder* recorder) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os, tracer, recorder);
  return static_cast<bool>(os);
}

bool write_metrics_json_file(const std::string& path, const MetricsRegistry& registry) {
  std::ofstream os(path);
  if (!os) return false;
  write_metrics_json(os, registry);
  return static_cast<bool>(os);
}

}  // namespace mmd::telemetry
