/// \file workstation.cc
/// \brief `workstation`: one user at the single-user workstation, driving a
/// durable ui::SessionController with the paper's gesture grammar. Every
/// gesture is timed through HandleEvent + Render; the server is bypassed.

#include <cstdio>
#include <memory>

#include "datasets/scaled_music.h"
#include "model.h"
#include "server/proto.h"
#include "store/serializer.h"
#include "store/wal.h"
#include "ui/controller.h"
#include "workloads.h"

namespace isisbench {

using isis::Result;
using isis::input::CommandEvent;
using isis::input::Event;
using isis::input::NamedPickEvent;
using isis::input::TextEvent;
using isis::query::Workspace;
using isis::ui::SessionController;

std::vector<Event> FamilyEditGestures(int inst, int old_family,
                                      int new_family) {
  std::vector<Event> out = {NamedPickEvent{"class:instruments"},
                            CommandEvent{"view contents"}};
  for (int i = 0; i < inst / 10; ++i) out.push_back(CommandEvent{"members down"});
  out.push_back(NamedPickEvent{"member:inst" + std::to_string(inst)});
  out.push_back(CommandEvent{"follow"});
  out.push_back(NamedPickEvent{"attr:family"});
  out.push_back(NamedPickEvent{"member:family" + std::to_string(new_family)});
  out.push_back(NamedPickEvent{"member:family" + std::to_string(old_family)});
  out.push_back(CommandEvent{"(re)assign att. value"});
  out.push_back(CommandEvent{"pop"});
  out.push_back(CommandEvent{"pop"});
  return out;
}

bool IsEditGesture(const Event& e) {
  const auto* c = std::get_if<CommandEvent>(&e);
  return c != nullptr && c->command == "(re)assign att. value";
}

FamilyEdits::FamilyEdits(int first, std::vector<int> home, std::uint64_t seed)
    : first_(first), home_(std::move(home)), current_(home_), rng_(seed) {}

FamilyEdits::Edit FamilyEdits::Next() {
  if (order_.empty()) {
    for (int i = static_cast<int>(home_.size()) - 1; i >= 0; --i) {
      order_.push_back(i);
    }
    for (std::size_t i = order_.size() - 1; i > 0; --i) {
      std::swap(order_[i], order_[rng_.Below(i + 1)]);
    }
  }
  const int i = order_.back();
  order_.pop_back();
  const int inst = first_ + i;
  const int home = home_[static_cast<std::size_t>(i)];
  const int away = (home + 1 + inst % 7) % 8;
  int& cur = current_[static_cast<std::size_t>(i)];
  const Edit e{inst, cur, cur == home ? away : home};
  cur = e.new_family;
  return e;
}

namespace {

constexpr const char* kName = "workstation";

/// The §4.2 worksheet session that defines fam2_players = musicians whose
/// instruments include one of family2, committed as a derived subclass.
std::vector<Event> WorksheetGestures() {
  return {NamedPickEvent{"class:musicians"},
          CommandEvent{"create subclass"},
          TextEvent{"fam2_players"},
          CommandEvent{"(re)define membership"},
          NamedPickEvent{"atom:A"},
          NamedPickEvent{"clause:1"},
          CommandEvent{"edit"},
          NamedPickEvent{"attr:plays"},
          NamedPickEvent{"attr:family"},
          NamedPickEvent{"op:~"},
          CommandEvent{"rhs constant"},
          NamedPickEvent{"member:family2"},
          CommandEvent{"accept constant"},
          CommandEvent{"commit"},
          CommandEvent{"view forest"}};
}

DerivedClass Fam2Players() {
  MAtom a;
  a.path = {"plays", "family"};
  a.op = "~";
  a.constants = {"family2"};
  return {"fam2_players", {"musicians", false, {{a}}}};
}

struct Plan {
  int scale = 0;
  int rounds = 0;
  int setups = 0;
  int recoveries = 0;  ///< Reopens from the same crash log; median reported.
  int replay_gestures = 0;
};

Plan MakePlan(const RunConfig& cfg) {
  Plan p;
  p.scale = cfg.toy ? 4 : 64;
  // About 100 rounds per `--seconds`, in whole passes over the 128
  // instruments, so every seed makes the same number of gestures.
  const int instruments = std::max(4, 2 * p.scale);
  p.rounds = cfg.toy ? 4
                     : instruments * std::max(1, (cfg.seconds * 100 +
                                                  instruments / 2) /
                                                     instruments);
  p.setups = cfg.toy ? 1 : 31;
  p.recoveries = cfg.toy ? 1 : 2;
  p.replay_gestures = cfg.toy ? 60 : 600;
  return p;
}

/// Durable open of a fresh dataset, the worksheet session, and a first
/// render. Exits on failure: nothing can be measured without it.
std::unique_ptr<SessionController> SetUp(const Plan& plan,
                                         const std::string& dir,
                                         CountingEnv* env) {
  ResetDir(dir);
  std::unique_ptr<Workspace> ws = isis::datasets::BuildScaledMusic(plan.scale);
  ws->set_name(kName);
  Result<std::unique_ptr<SessionController>> ctrl =
      SessionController::OpenDurable(std::move(ws), {dir, env});
  if (!ctrl.ok()) {
    std::fprintf(stderr, "durable open failed: %s\n",
                 ctrl.status().ToString().c_str());
    std::exit(3);
  }
  for (const Event& e : WorksheetGestures()) {
    if (!(*ctrl)->HandleEvent(e).ok()) {
      std::fprintf(stderr, "set-up gesture %s failed: %s\n",
                   isis::input::EventToString(e).c_str(),
                   (*ctrl)->message().c_str());
      std::exit(3);
    }
    (*ctrl)->Render();
  }
  return std::move(ctrl).ValueOrDie();
}

/// One gesture of the stream and, for an edit, the value it writes.
struct Gesture {
  Event event;
  bool round_start = false;  ///< First gesture of a round.
  int inst = -1;  ///< Edited instrument, or -1 for navigation.
  int family = -1;
};

/// The seeded gesture stream: per round one data edit of an instrument's
/// family (FamilyEdits over every instrument, starting from the set-up
/// families `family`), a look at the derived subclass, and a follow from a
/// group to its members.
std::vector<Gesture> Generate(const Plan& plan, std::uint64_t seed,
                              std::vector<int> family) {
  BenchRng rng(Mix(seed, 4));
  FamilyEdits edits(0, std::move(family), Mix(seed, 5));
  const int ng = std::max(2, 3 * plan.scale);
  std::vector<Gesture> out;
  for (int r = 0; r < plan.rounds; ++r) {
    const FamilyEdits::Edit ed = edits.Next();
    const std::size_t first = out.size();
    for (Event& e : FamilyEditGestures(ed.inst, ed.old_family,
                                       ed.new_family)) {
      const bool edit = IsEditGesture(e);
      out.push_back({std::move(e), false, edit ? ed.inst : -1,
                     edit ? ed.new_family : -1});
    }
    out[first].round_start = true;
    const int g = static_cast<int>(
        rng.Below(static_cast<std::uint64_t>(std::min(ng, 10))));
    const std::vector<Event> nav = {
        NamedPickEvent{"class:fam2_players"},
        CommandEvent{"view contents"},
        CommandEvent{"members down"},
        CommandEvent{"pop"},
        NamedPickEvent{"class:music_groups"},
        CommandEvent{"view contents"},
        NamedPickEvent{"member:group" + std::to_string(g)},
        CommandEvent{"follow"},
        NamedPickEvent{"attr:members"},
        CommandEvent{"pop"},
        CommandEvent{"pop"}};
    for (const Event& e : nav) out.push_back({e, false});
  }
  return out;
}

}  // namespace

WorkloadResult RunWorkstation(const RunConfig& cfg) {
  const Plan plan = MakePlan(cfg);
  PrintHeader(cfg, plan.scale, 1, plan.rounds, -1);
  WorkloadResult res;
  const std::string dir = cfg.dir + "/" + kName;
  CountingEnv env;

  std::vector<double> setup_s;
  std::unique_ptr<SessionController> ctrl;
  for (int i = 0; i < plan.setups; ++i) {
    ctrl.reset();
    Clock::time_point t0 = Clock::now();
    ctrl = SetUp(plan, dir, &env);
    setup_s.push_back(SecondsSince(t0));
  }
  res.e2e.setup_s = Percentile(setup_s, 0.5);

  Model model = Model::FromDatabase(
      ctrl->workspace().db(),
      {"musicians", "instruments", "music_groups", "families"});
  model.AddDerivedClass(Fam2Players());
  if (model.Dump() != model.DumpDatabase(ctrl->workspace().db())) {
    res.outcome.CheckFailed("model and database disagree after set-up");
  }
  std::vector<int> family;
  for (int k = 0; k < std::max(4, 2 * plan.scale); ++k) {
    const Names& f = model.Get("family", "inst" + std::to_string(k));
    family.push_back(std::stoi(f.begin()->substr(6)));
  }
  const std::vector<Gesture> stream = Generate(plan, cfg.seed, family);

  const CountingEnv::Totals e0 = env.totals();
  Timeline timeline;
  std::int64_t edits_ok = 0, logged = 0, rounds = 0;
  std::size_t done = 0;
  Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = t0 + TimedPhaseCap(cfg);
  for (const Gesture& g : stream) {
    if (g.round_start) {
      if (done > 0 && Clock::now() >= deadline) break;
      ++rounds;
    }
    ++done;
    const Event& e = g.event;
    const bool edit = g.inst >= 0;
    Clock::time_point g0 = Clock::now();
    const bool ok = ctrl->HandleEvent(e).ok();
    ctrl->Render();
    timeline.Add(SecondsSince(t0), MicrosSince(g0), edit);
    res.outcome.Count(edit ? "edit_gesture" : "navigation_gesture", ok);
    if (ok) ++logged;
    // The model learns an edit once the gesture that makes it succeeded.
    if (edit && ok) {
      ++edits_ok;
      family[static_cast<std::size_t>(g.inst)] = g.family;
    }
  }
  const double elapsed = SecondsSince(t0);
  if (rounds < plan.rounds) {
    std::fprintf(stderr, "# stopped at the time cap after %lld of %d rounds\n",
                 static_cast<long long>(rounds), plan.rounds);
  }
  const CountingEnv::Totals e1 = env.totals();
  for (std::size_t k = 0; k < family.size(); ++k) {
    model.Set("family", "inst" + std::to_string(k),
              {"family" + std::to_string(family[k])});
  }
  const double undo_depth = static_cast<double>(ctrl->undo_depth());

  if (cfg.inject_wrong_answer) model.Set("family", "inst0", {"no-such-family"});
  const std::string want = model.Dump();
  const std::string before_crash = model.DumpDatabase(ctrl->workspace().db());
  if (before_crash != want) {
    res.outcome.CheckFailed("state differs from the model: " +
                            FirstDifference(want, before_crash));
  }

  // Crash: drop the session without a checkpoint, then reopen.
  std::int64_t records = 0;
  {
    Result<isis::store::WalContents> log =
        isis::store::ReadWal(ctrl->wal_path(), &env);
    if (log.ok()) records = static_cast<std::int64_t>(log->records.size());
  }
  ctrl.reset();
  CopyDir(dir, dir + ".crash");
  std::vector<double> recovery_s;
  for (int i = 0; i < plan.recoveries; ++i) {
    if (i > 0) CopyDir(dir + ".crash", dir);
    auto placeholder = std::make_unique<Workspace>();
    placeholder->set_name(kName);
    Clock::time_point r0 = Clock::now();
    Result<std::unique_ptr<SessionController>> reopened =
        SessionController::OpenDurable(std::move(placeholder), {dir, &env});
    recovery_s.push_back(SecondsSince(r0));
    if (!reopened.ok()) {
      res.outcome.CheckFailed("recovery failed: " +
                              reopened.status().ToString());
      break;
    }
    const std::string after =
        model.DumpDatabase((*reopened)->workspace().db());
    if (after != before_crash) {
      res.outcome.CheckFailed("recovered state differs from the pre-crash "
                              "state: " +
                              FirstDifference(before_crash, after));
    }
  }
  res.e2e.recovery_s = Percentile(recovery_s, 0.5);
  std::fprintf(stderr,
               "# phases: set-up %.2f s, timed %.2f s, recoveries %d x %.4f s "
               "(min %.4f, max %.4f)\n",
               res.e2e.setup_s * plan.setups, elapsed, plan.recoveries,
               res.e2e.recovery_s, Percentile(recovery_s, 0),
               Percentile(recovery_s, 1));

  res.e2e.ops_per_s = timeline.MedianRate(elapsed, Slices(cfg));
  res.e2e.read_p50_us = timeline.MedianP50(false, elapsed, Slices(cfg));
  res.e2e.write_p50_us = timeline.MedianP50(true, elapsed, Slices(cfg));
  res.layers.client_read_p99_us = timeline.P99(false);
  res.layers.client_write_p99_us = timeline.P99(true);
  res.e2e.wal_bytes_per_write =
      edits_ok > 0 ? static_cast<double>(e1.wal_bytes - e0.wal_bytes) / edits_ok
                   : 0.0;

  if (cfg.trace) {
    Layers& L = res.layers;
    L.ui_undo_depth = undo_depth;
    L.store_wal_syncs_per_write =
        edits_ok > 0
            ? static_cast<double>(e1.wal_syncs - e0.wal_syncs) / edits_ok
            : 0;
    L.store_wal_group_mean =
        e1.wal_syncs > e0.wal_syncs
            ? static_cast<double>(logged) / (e1.wal_syncs - e0.wal_syncs)
            : 0;
    L.store_replay_us_per_record =
        records > 0 ? res.e2e.recovery_s * 1e6 / records : 0;

    // Replay a prefix of the same gesture stream on a fresh durable
    // session, without and with spans.
    const std::size_t n =
        std::min(stream.size(), static_cast<std::size_t>(plan.replay_gestures));
    auto replay = [&](SpanRecorder* rec) {
      CountingEnv renv;
      std::unique_ptr<SessionController> c =
          SetUp(plan, dir + "/replay", &renv);
      Clock::time_point a = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        const Event& e = stream[i].event;
        {
          ScopedSpan s(rec, "proto.frame");
          isis::server::Frame f;
          f.type = isis::server::MsgType::kEvent;
          f.payload = isis::input::EncodeEvent(e);
          isis::server::FrameReader reader;
          reader.Feed(isis::server::EncodeFrame(f));
          isis::server::Frame back;
          (void)reader.Next(&back);
        }
        const bool edit = IsEditGesture(e);
        {
          ScopedSpan s(rec, edit ? "ui.write_dispatch" : "ui.read_dispatch");
          (void)c->HandleEvent(e);
        }
        {
          ScopedSpan s(rec, "ui.render");
          c->Render();
        }
      }
      const double secs = SecondsSince(a);
      // An edit gesture takes its undo snapshot (store::Save) and, without
      // live views, re-derives every view (Workspace::ReevaluateAll) inside
      // HandleEvent, where no span can reach. Both are timed here instead,
      // outside the timed replay, on the workspace the replay left behind,
      // together with a checkpoint of it.
      std::vector<double> ck, snap, maintain;
      const isis::query::Workspace& ws = c->workspace();
      for (int i = 0; i < 5; ++i) {
        Clock::time_point b = Clock::now();
        L.store_snapshot_bytes =
            static_cast<double>(isis::store::Save(ws).size());
        snap.push_back(MicrosSince(b));
        if (!ws.db().options().live_views) {
          b = Clock::now();
          (void)c->workspace().ReevaluateAll();
          maintain.push_back(MicrosSince(b));
        }
        b = Clock::now();
        (void)isis::store::WalWriter::CreateWithRecords(
            dir + "/replay/ckpt.isis.wal", &renv,
            {{"base", isis::store::Save(ws)}});
        ck.push_back(MicrosSince(b));
      }
      L.store_snapshot_us = Percentile(snap, 0.5);
      L.query_maintain_us_per_write = Percentile(maintain, 0.5);
      L.store_checkpoint_us = Percentile(ck, 0.5);
      return secs;
    };
    SpanRecorder off(false);
    const double base = replay(&off);
    SpanRecorder on(true);
    const double traced = replay(&on);
    L.trace_overhead_pct = (traced - base) / base * 100;
    L.proto_frame_us = Percentile(on.Durations("proto.frame"), 0.5);
    L.ui_read_dispatch_us = Percentile(on.Durations("ui.read_dispatch"), 0.5);
    L.ui_write_dispatch_us =
        Percentile(on.Durations("ui.write_dispatch"), 0.5);
    L.ui_render_us = Percentile(on.Durations("ui.render"), 0.5);
  }
  res.e2e.peak_rss_mb = PeakRssMb();
  return res;
}

}  // namespace isisbench
