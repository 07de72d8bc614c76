// The measured serving phases of a workload and their traced attribution.
//
// RunServePhases alternates slices of the open loop and the closed loop,
// with a kStats snapshot fetched over the wire between slices (never
// during one), and checks each slice's and each phase's validity. TraceServeLayers is
// the traced run's replay: a fixed sample of the workload's requests sent
// one at a time through (a) the wire, (b) ModelRegistry::Acquire +
// DecodeService::Submit/Wait in process, and (c) the offline emission
// table + Try* kernel. The differences between the three medians
// attribute the round trip to transport and hand-off.
#ifndef DHMM_PERFBENCH_SERVE_PHASES_H_
#define DHMM_PERFBENCH_SERVE_PHASES_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serve.h"
#include "store/dual_slot.h"

namespace perfbench {

/// The open-loop generator may run this late at its p99 before the phase
/// counts as invalid: beyond it, the offered load is no longer the fixed
/// rate the workload names. Lateness is judged only over at least
/// kMinSendsForLateness sends, so that the p99 has ten samples beyond it.
/// (Round trips are timed from the scheduled send time either way, so a
/// late generator never hides queueing from the round-trip figures.)
inline constexpr double kMaxSendLateP99Us = 20000.0;
inline constexpr size_t kMinSendsForLateness = 1000;

inline double Delta(const StatsMap& before, const StatsMap& after,
                    const std::string& name) {
  auto get = [&](const StatsMap& m) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

/// Checks one slice of a phase: accepted frames reconcile exactly with the
/// client's sent count (+1 for the kStats frame whose snapshot closes the
/// slice), and nothing was shed or expired.
inline void CheckSlice(const std::string& name, const PhaseOutcome& slice,
                       const StatsMap& before, const StatsMap& after,
                       Result* res) {
  const double accepted = Delta(before, after, "frontend.frames_accepted");
  const double shed = Delta(before, after, "frontend.requests_shed");
  const double expired = Delta(before, after, "frontend.deadline_expired");
  if (accepted != static_cast<double>(slice.sent + 1)) {
    res->Invalid(name + ": frontend.frames_accepted delta " +
                 std::to_string(static_cast<uint64_t>(accepted)) +
                 " != sent " + std::to_string(slice.sent) + " + 1");
  }
  if (shed != 0.0 || slice.shed != 0) res->Invalid(name + ": requests shed");
  if (expired != 0.0) res->Invalid(name + ": deadlines expired");
}

/// Appends one slice's outcome to its phase's.
inline void Merge(const PhaseOutcome& slice, PhaseOutcome* phase) {
  phase->sent += slice.sent;
  phase->ok += slice.ok;
  phase->failed += slice.failed;
  phase->shed += slice.shed;
  phase->errors += slice.errors;
  phase->mismatched += slice.mismatched;
  phase->duration_s += slice.duration_s;
  phase->window_s = slice.window_s;
  phase->rtt_us.insert(phase->rtt_us.end(), slice.rtt_us.begin(),
                       slice.rtt_us.end());
  phase->late_us.insert(phase->late_us.end(), slice.late_us.begin(),
                        slice.late_us.end());
  phase->ok_by_window.insert(phase->ok_by_window.end(),
                             slice.ok_by_window.begin(),
                             slice.ok_by_window.end());
}

/// Counts a whole phase into the result and checks that the open-loop
/// generator kept to its schedule.
inline void CheckPhase(const std::string& name, const PhaseOutcome& phase,
                       Result* res) {
  if (phase.late_us.size() >= kMinSendsForLateness) {
    std::vector<double> late = phase.late_us;
    const double p99 = Quantile(&late, 0.99);
    if (p99 > kMaxSendLateP99Us) {
      res->Invalid(name + Fmt(": generator p99 lateness %.1f us > %.0f us",
                              p99, kMaxSendLateP99Us));
    }
  }
  res->attempted += phase.sent;
  res->failed += phase.failed;
  res->Note(name + Fmt(": sent %.0f ok %.0f failed %.0f (error status %.0f, "
                       "oracle mismatch %.0f, unanswered %.0f) in %.3f s",
                       phase.sent, phase.ok, phase.failed, phase.errors,
                       phase.mismatched,
                       phase.failed - phase.errors - phase.mismatched,
                       phase.duration_s));
}

/// Reloads the served models from their stores at a fixed period,
/// alternating between them, on its own client thread; records each
/// ModelRegistry::ReloadModel wall time.
template <typename Obs>
class Reloader {
 public:
  Reloader(WireEnv<Obs>* env, int period_ms) {
    if (period_ms <= 0) return;
    durations_us_.reserve(4096);
    thread_ = std::thread([this, env, period_ms] {
      CpuPlacement::PinToSpareCpus();
      Clock::time_point next = Clock::now();
      for (size_t i = 0; !stop_.load(std::memory_order_acquire); ++i) {
        next += std::chrono::milliseconds(period_ms);
        std::this_thread::sleep_until(next);
        if (stop_.load(std::memory_order_acquire)) break;
        const size_t m = i % env->served().size();
        const Clock::time_point t0 = Clock::now();
        const dhmm::Status st = env->registry().ReloadModel(
            static_cast<serve::ModelId>(m + 1), env->store_dir(m));
        durations_us_.push_back(Micros(t0, Clock::now()));
        if (!st.ok()) ++failed_;
      }
    });
  }
  ~Reloader() { Stop(); }
  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  // Valid after Stop().
  const std::vector<double>& durations_us() const { return durations_us_; }
  uint64_t failed() const { return failed_; }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> durations_us_;
  uint64_t failed_ = 0;
  std::thread thread_;
};

/// The quantile of restart fit times that fit_s reports: toward the
/// restarts the host disturbed least, since CPU steal and scheduling delays
/// on a shared host only ever add time.
inline constexpr double kQuietLatencyQuantile = 0.25;

/// What the serving phases leave for the traced replay.
struct ServePhaseData {
  std::vector<double> reload_us;  // reload wall times under load
};

/// Runs the open and closed loops and reports rtt_p50_us and sat_rps
/// (untraced), or the counter deltas, the round-trip p99 and the
/// generator lateness (traced).
///
/// The two loops alternate in spec().rounds slices each, so both spread
/// over the whole serving half of the run: a shared host runs the same code
/// in slow and fast spells that last seconds, and a phase measured in one
/// block caught a different mix of them than the other phase.
template <typename Obs>
ServePhaseData RunServePhases(const Args& args, WireEnv<Obs>* env,
                              double open_s, double closed_s, Result* res) {
  dhmm::prob::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  const int rounds = std::max(1, env->spec().rounds);
  Reloader<Obs> reloader(env, env->spec().reload_period_ms);
  const StatsMap s0 = env->FetchStats();
  StatsMap before = s0;
  PhaseOutcome open, closed;
  for (int r = 0; r < rounds; ++r) {
    const PhaseOutcome o = env->RunOpen(open_s / rounds, &rng);
    const StatsMap mid = env->FetchStats();
    const PhaseOutcome c = env->RunClosed(closed_s / rounds);
    const StatsMap after = env->FetchStats();
    CheckSlice("open loop", o, before, mid, res);
    CheckSlice("closed loop", c, mid, after, res);
    Merge(o, &open);
    Merge(c, &closed);
    before = after;
  }
  const StatsMap& s2 = before;
  reloader.Stop();

  CheckPhase("open loop", open, res);
  CheckPhase("closed loop", closed, res);
  const size_t reloads = reloader.durations_us().size();
  res->attempted += reloads;
  res->failed += reloader.failed();
  if (reloads > 0) {
    res->Note(Fmt("reloads: %.0f attempted, %.0f failed",
                  static_cast<double>(reloads),
                  static_cast<double>(reloader.failed())));
  }

  std::vector<double> p50s, p99s, sats, all;
  for (const std::vector<double>& window : open.rtt_us) {
    if (window.empty()) continue;
    std::vector<double> v = window;
    p50s.push_back(Quantile(&v, 0.5));
    p99s.push_back(Quantile(&v, 0.99));
    all.insert(all.end(), window.begin(), window.end());
  }
  uint64_t closed_ok = 0;
  for (uint64_t n : closed.ok_by_window) {
    closed_ok += n;
    sats.push_back(static_cast<double>(n) /
                   std::max(closed.window_s, 1e-9));
  }
  std::vector<double> late = open.late_us;
  const double late_p99 = Quantile(&late, 0.99);
  // rtt_p50_us is the median of every open-loop round trip. The p99 and
  // sat_rps are medians over the phase's windows, so a stall of the host
  // that disturbs a few windows does not move them.
  const double p50 = Quantile(&all, 0.5);
  const double p99 = Median(&p99s);
  const double sat = Median(&sats);
  res->Note(Fmt("open loop at %.0f req/s: rtt p50 %.2f us over %.0f "
                "samples (window p50 quartiles %.2f and %.2f us)",
                env->spec().open_rate, p50, static_cast<double>(all.size()),
                Quantile(&p50s, 0.25), Quantile(&p50s, 0.75)));
  res->Note(Fmt("open loop: rtt p99 %.2f us (median of %.0f windows, from "
                "%.2f to %.2f us; %.2f us over all samples)",
                p99, static_cast<double>(p99s.size()),
                p99s.empty() ? 0.0 : p99s.front(),
                p99s.empty() ? 0.0 : p99s.back(), Quantile(&all, 0.99)));
  res->Note(Fmt("open loop generator lateness p99 %.2f us over %.0f sends",
                late_p99, static_cast<double>(open.late_us.size())));
  res->Note(Fmt("closed loop (2 connections x %.0f in flight): %.0f req/s "
                "(median of %.0f windows, quartiles %.0f and %.0f, windows "
                "%.0f to %.0f), %.0f OK responses",
                static_cast<double>(env->spec().window), sat,
                static_cast<double>(sats.size()), Quantile(&sats, 0.25),
                Quantile(&sats, 0.75), sats.empty() ? 0.0 : sats.front(),
                sats.empty() ? 0.0 : sats.back(),
                static_cast<double>(closed_ok)));
  // The p99 is a per-layer figure of the client, not an end-to-end metric
  // with a bound: on the shared host the benchmark was calibrated on, CPU
  // steal moved it by more than 25% between runs of the same code.
  if (!args.trace) {
    res->Add("rtt_p50_us", p50, "us");
    res->Add("sat_rps", sat, "req/s");
  } else {
    res->Add("client.rtt_p99_us", p99, "us");
    const double requests = Delta(s0, s2, "decode.requests");
    const double batches = Delta(s0, s2, "decode.batches");
    auto gauge = [&](const char* name) {
      auto it = s2.find(name);
      return it == s2.end() ? 0.0 : it->second;
    };
    res->Add("frontend.req_ring_occupancy",
             gauge("frontend.req_ring_occupancy"), "count");
    res->Add("decode.batch_size_mean", batches > 0 ? requests / batches : 0.0,
             "count");
    res->Add("decode.coalesce_depth", gauge("decode.coalesce_depth"), "count");
    res->Add("sessions.pushes", Delta(s0, s2, "sessions.pushes"), "count");
    res->Add("decode.hot_swaps", Delta(s0, s2, "decode.hot_swaps"), "count");
    // Each slice's closing kStats frame is an accepted frame too.
    res->Add("frontend.frames_accepted",
             Delta(s0, s2, "frontend.frames_accepted") - 2.0 * rounds,
             "count");
    res->Add("frontend.requests_shed", Delta(s0, s2, "frontend.requests_shed"),
             "count");
    res->Add("frontend.deadline_expired",
             Delta(s0, s2, "frontend.deadline_expired"), "count");
    res->Add("client.send_late_p99_us", late_p99, "us");
  }
  return ServePhaseData{reloader.durations_us()};
}

/// Median wall time per call of `fn`, timed in batches of `batch` calls.
template <typename Fn>
double MedianPerCall(int batches, int batch, Fn fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < batch; ++i) fn(i);
    per_call.push_back(Micros(t0, Clock::now()) / batch);
  }
  return Median(&per_call);
}

/// The traced run's per-layer replay over `sample` stateless requests,
/// `reps` rounds, plus direct timings of the registry, store, codec and
/// session layers.
template <typename Obs>
void TraceServeLayers(WireEnv<Obs>* env, size_t sample, int reps,
                      const ServePhaseData& phases, Result* res) {
  const ServeSpec<Obs>& spec = env->spec();
  std::vector<uint32_t> picks;
  for (uint32_t t : spec.order[0]) {
    if (picks.size() == sample) break;
    if (spec.templates[t].kind != serve::DecodeKind::kSessionPush) {
      picks.push_back(t);
    }
  }
  auto matches = [](const serve::DecodeResponse& r, const Expected& e) {
    return r.status.ok() && r.path == e.path && SameBits(r.value, e.value);
  };

  std::vector<double> wire_us, inproc_us, offline_us, table_us, vit_us,
      post_us;
  hmm::InferenceWorkspace ws;
  hmm::ViterbiResult vit;
  hmm::ForwardBackwardResult fb;
  std::vector<int> path;
  serve::DecodeResponse resp;
  uint64_t id = uint64_t{1} << 40;
  for (int rep = 0; rep < reps; ++rep) {
    for (uint32_t ti : picks) {
      const RequestTemplate<Obs>& t = spec.templates[ti];
      serve::DecodeRequest<Obs> req;
      req.request_id = ++id;
      req.model = t.model;
      req.kind = t.kind;
      req.obs = &t.obs;
      res->attempted += 3;

      // (a) the wire, one request at a time.
      Clock::time_point t0 = Clock::now();
      const dhmm::Status st = env->control().Call(req, &resp);
      wire_us.push_back(Micros(t0, Clock::now()));
      if (!st.ok() || !matches(resp, t.expected)) ++res->failed;

      // (b) in process: registry routing + the decode service.
      t0 = Clock::now();
      auto svc = env->registry().Acquire(t.model);
      if (!svc.ok()) Fatal("acquire during replay");
      serve::DecodeFuture<Obs> fut = svc.value()->Submit(req);
      const bool inproc_ok = matches(fut.Wait(), t.expected);
      fut.Release();
      inproc_us.push_back(Micros(t0, Clock::now()));
      if (!inproc_ok) ++res->failed;

      // (c) offline: emission table + the inference kernel. The other
      // kernel runs too (untimed for the path) so both kernels are
      // measured on every workload.
      const hmm::HmmModel<Obs>& m = *env->served()[t.model - 1];
      t0 = Clock::now();
      m.emission->LogProbTableInto(t.obs, &ws.log_b);
      const Clock::time_point t1 = Clock::now();
      bool offline_ok = false;
      if (t.kind == serve::DecodeKind::kViterbi) {
        offline_ok = hmm::TryViterbi(m.pi, m.a, ws.log_b, &ws, &vit).ok() &&
                     vit.path == t.expected.path &&
                     SameBits(vit.log_joint, t.expected.value);
      } else {
        offline_ok =
            hmm::TryPosteriorDecode(m.pi, m.a, ws.log_b, &ws, &fb, &path)
                .ok() &&
            path == t.expected.path &&
            SameBits(fb.log_likelihood, t.expected.value);
      }
      const Clock::time_point t2 = Clock::now();
      if (!offline_ok) ++res->failed;
      offline_us.push_back(Micros(t0, t2));
      table_us.push_back(Micros(t0, t1));
      (t.kind == serve::DecodeKind::kViterbi ? vit_us : post_us)
          .push_back(Micros(t1, t2));
      const Clock::time_point t3 = Clock::now();
      bool other_ok = false;
      if (t.kind == serve::DecodeKind::kViterbi) {
        other_ok =
            hmm::TryPosteriorDecode(m.pi, m.a, ws.log_b, &ws, &fb, &path).ok();
        post_us.push_back(Micros(t3, Clock::now()));
      } else {
        other_ok = hmm::TryViterbi(m.pi, m.a, ws.log_b, &ws, &vit).ok();
        vit_us.push_back(Micros(t3, Clock::now()));
      }
      if (!other_ok) ++res->failed;
    }
  }
  const double a = Median(&wire_us);
  const double b = Median(&inproc_us);
  const double c = Median(&offline_us);
  const double table = Median(&table_us);
  res->Note(Fmt("replay medians: wire %.2f us, in-process %.2f us, offline "
                "%.2f us (table %.2f us)",
                a, b, c, table));
  res->Note(Fmt("attribution: transport %.1f%%, hand-off %.1f%%, emission "
                "table %.1f%%, kernel %.1f%% of the wire round trip",
                100.0 * (a - b) / a, 100.0 * (b - c) / a, 100.0 * table / a,
                100.0 * (c - table) / a));
  res->Add("frontend.transport_us", a - b, "us");
  res->Add("decode_service.handoff_us", b - c, "us");
  res->Add("prob.emission_table_us", table, "us");
  res->Add("hmm.viterbi_us", Median(&vit_us), "us");
  res->Add("hmm.posterior_us", Median(&post_us), "us");

  // The codec: one request encode plus one response encode per round trip.
  std::vector<uint8_t> req_buf, resp_buf;
  std::vector<serve::DecodeResponse> responses(picks.size());
  for (size_t i = 0; i < picks.size(); ++i) {
    const RequestTemplate<Obs>& t = spec.templates[picks[i]];
    responses[i].kind = t.kind;
    responses[i].path = t.expected.path;
    responses[i].value = t.expected.value;
    responses[i].model_version = 1;
  }
  const double encode_us =
      MedianPerCall(41, static_cast<int>(picks.size()), [&](int i) {
        const RequestTemplate<Obs>& t = spec.templates[picks[i]];
        serve::DecodeRequest<Obs> req;
        req.model = t.model;
        req.kind = t.kind;
        req.obs = &t.obs;
        req_buf.clear();
        resp_buf.clear();
        if (!serve::wire::EncodeRequest(req, &req_buf).ok() ||
            !serve::wire::EncodeResponse(responses[i], t.model, &resp_buf)
                 .ok()) {
          Fatal("encode during replay");
        }
      });
  res->Add("wire.encode_ns", encode_us * 1000.0, "ns");

  const double acquire_us = MedianPerCall(41, 256, [&](int) {
    if (!env->registry().Acquire(1).ok()) Fatal("acquire during replay");
  });
  res->Add("model_registry.acquire_ns", acquire_us * 1000.0, "ns");

  const double load_us = MedianPerCall(31, 1, [&](int) {
    if (!dhmm::store::LoadAnyModel<Obs>(env->store_dir(0)).ok()) {
      Fatal("store load during replay");
    }
  });
  res->Add("store.load_us", load_us, "us");

  // Reload latency: under load when the workload reloads, else idle.
  std::vector<double> reload_us = phases.reload_us;
  if (reload_us.empty()) {
    for (int i = 0; i < 31; ++i) {
      const Clock::time_point t0 = Clock::now();
      if (!env->registry().ReloadModel(1, env->store_dir(0)).ok()) {
        Fatal("reload during replay");
      }
      reload_us.push_back(Micros(t0, Clock::now()));
    }
  }
  res->Add("model_registry.reload_p50_us", Quantile(&reload_us, 0.5), "us");
  res->Add("model_registry.reload_p99_us", Quantile(&reload_us, 0.99), "us");

  // Session pushes on a benchmark-owned manager over the served model:
  // the workload's own push frames when it has them, else 4-frame chunks
  // of the replay sample.
  serve::SessionManager<Obs> sessions(env->served()[0]);
  auto handle = sessions.CreateSession();
  CheckOk(handle.status(), "replay session");
  std::vector<std::vector<Obs>> chunks;
  if (spec.sessions) {
    for (uint32_t t : spec.order[1]) {
      if (chunks.size() == 2000) break;
      chunks.push_back(spec.templates[t].obs);
    }
  } else {
    for (uint32_t ti : picks) {
      const std::vector<Obs>& obs = spec.templates[ti].obs;
      for (size_t s = 0; s + 4 <= obs.size(); s += 4) {
        chunks.emplace_back(obs.begin() + s, obs.begin() + s + 4);
      }
    }
  }
  std::vector<double> push_us;
  for (const std::vector<Obs>& chunk : chunks) {
    const Clock::time_point t0 = Clock::now();
    for (const Obs& y : chunk) {
      int label = -1;
      if (!sessions.Push(handle.value(), y, &label).ok()) ++res->failed;
    }
    push_us.push_back(Micros(t0, Clock::now()));
  }
  res->attempted += chunks.size();
  res->Add("session_manager.push_us", Median(&push_us), "us");
}

}  // namespace perfbench

#endif  // DHMM_PERFBENCH_SERVE_PHASES_H_
