/// \file server_workloads.cc
/// \brief `navigate` and `edit`: closed-loop client sessions, each on its
/// own thread, driving one durable server::Server through RetryingClient
/// over LoopbackTransport (the full wire round trip without a socket).

#include <algorithm>
#include <cstdio>
#include <latch>
#include <memory>
#include <optional>
#include <thread>

#include "common/strings.h"
#include "datasets/scaled_music.h"
#include "live/deps.h"
#include "model.h"
#include "query/cache.h"
#include "query/eval.h"
#include "query/parser.h"
#include "server/loopback.h"
#include "server/proto.h"
#include "server/retry.h"
#include "server/session.h"
#include "store/group_commit.h"
#include "store/serializer.h"
#include "store/wal.h"
#include "ui/controller.h"
#include "workloads.h"

namespace isisbench {

using isis::Result;
using isis::query::Workspace;
using isis::server::Frame;
using isis::server::MsgType;
using isis::server::Server;

namespace {

/// One request of a client's seeded stream.
struct Op {
  MsgType type = MsgType::kQuery;
  std::string payload;
  std::string op_class;  ///< Accounting class.
  /// Timed as a write: a kAssign or the `(re)assign att. value` gesture.
  /// Navigation gestures are reads, as on `workstation`.
  bool write = false;
  bool round_start = false;  ///< First op of a round.
  /// kQuery: the answer is known in advance (it reads nothing any client
  /// writes), so it is checked at once against `expected`.
  bool check_now = false;
  Names expected;
  /// The model change an acknowledged write makes; `attr` empty = none.
  std::string attr;
  std::string entity;
  Names values;
};

/// Everything one workload fixes before a run.
struct Plan {
  std::string name;
  int scale = 0;
  int clients = 0;
  int rounds = 0;
  int setups = 0;
  int recoveries = 1;  ///< Reopens from the same crash log; median reported.
  std::vector<std::string> classes = {"musicians", "instruments",
                                      "music_groups", "families"};
  std::vector<DerivedClass> derived;
  std::vector<DerivedAttr> derived_attrs;
  std::vector<MPredicate> pool;  ///< Every predicate the reads draw from.
  int replay_ops = 0;
};

// --- Datasets and views. ---

std::unique_ptr<Workspace> BuildWorkspace(const Plan& plan) {
  // The dataset is fixed (the generator's default seed); --seed varies the
  // requests only, so runs with different seeds load identical data.
  std::unique_ptr<Workspace> ws = isis::datasets::BuildScaledMusic(plan.scale);
  ws->set_name(plan.name);
  isis::sdm::Database& db = ws->db();
  const isis::sdm::Schema& schema = db.schema();
  for (const DerivedClass& d : plan.derived) {
    isis::ClassId parent = *schema.FindClass(d.pred.cls);
    Result<isis::ClassId> cls = db.CreateSubclass(
        d.name, parent, isis::sdm::Membership::kEnumerated);
    Result<isis::query::Predicate> pred =
        isis::query::ParsePredicate(db, parent, d.pred.Text());
    if (!cls.ok() || !pred.ok() ||
        !ws->DefineSubclassMembership(*cls, *pred).ok()) {
      std::fprintf(stderr, "cannot define derived class %s\n", d.name.c_str());
      std::exit(3);
    }
  }
  for (const DerivedAttr& d : plan.derived_attrs) {
    isis::ClassId owner = *schema.FindClass(d.owner);
    isis::ClassId value = *schema.FindClass(d.value_class);
    Result<isis::AttributeId> attr =
        db.CreateAttribute(owner, d.name, value, true);
    std::string text = "x";
    for (const std::string& p : d.path) text += "." + p;
    Result<isis::query::Term> term =
        isis::query::ParseTerm(db, value, owner, text);
    if (!attr.ok() || !term.ok() ||
        !ws->DefineAttributeDerivation(
               *attr, isis::query::AttributeDerivation::Assign(*term))
             .ok()) {
      std::fprintf(stderr, "cannot define derived attribute %s\n",
                   d.name.c_str());
      std::exit(3);
    }
  }
  return ws;
}

Model BuildModel(const Plan& plan, const Workspace& ws) {
  Model m = Model::FromDatabase(ws.db(), plan.classes);
  for (const DerivedClass& d : plan.derived) m.AddDerivedClass(d);
  for (const DerivedAttr& d : plan.derived_attrs) m.AddDerivedAttr(d);
  return m;
}

std::string Inst(std::uint64_t i) { return "inst" + std::to_string(i); }
std::string Fam(std::uint64_t i) { return "family" + std::to_string(i); }
std::string Mus(std::uint64_t i) { return "musician" + std::to_string(i); }

MAtom Atom(std::vector<std::string> path, std::string op,
           std::vector<std::string> constants, bool negated = false) {
  MAtom a;
  a.path = std::move(path);
  a.op = std::move(op);
  a.constants = std::move(constants);
  a.negated = negated;
  return a;
}

Op QueryOp(const MPredicate& p, std::string op_class) {
  Op op;
  op.type = MsgType::kQuery;
  op.payload = isis::server::JoinFields({p.cls, p.Text()});
  op.op_class = std::move(op_class);
  return op;
}

/// kAssign of `plays` for a musician of the client's own slice.
Op PlaysAssign(BenchRng* rng, int musician, int instruments) {
  Names kit;
  const int k = 1 + static_cast<int>(rng->Below(3));
  while (static_cast<int>(kit.size()) < k) {
    kit.insert(Inst(rng->Below(static_cast<std::uint64_t>(instruments))));
  }
  std::string values;
  for (const std::string& v : kit) values += (values.empty() ? "" : ",") + v;
  Op op;
  op.type = MsgType::kAssign;
  op.payload = isis::server::JoinFields(
      {"musicians", Mus(static_cast<std::uint64_t>(musician)), "plays",
       values});
  op.op_class = "assign";
  op.write = true;
  op.attr = "plays";
  op.entity = Mus(static_cast<std::uint64_t>(musician));
  op.values = kit;
  return op;
}

// --- navigate. ---

/// A seeded pool of distinct predicates over musicians, instruments and
/// music groups: equality, superset, weak match, orderings, negation, map
/// paths, CNF and DNF.
std::vector<MPredicate> NavigatePool(std::uint64_t seed, int scale,
                                     std::size_t n) {
  BenchRng rng(Mix(seed, 1));
  const std::uint64_t ni = static_cast<std::uint64_t>(std::max(4, 2 * scale));
  const std::uint64_t nm = static_cast<std::uint64_t>(std::max(8, 16 * scale));
  auto inst = [&] { return Inst(rng.Below(ni)); };
  auto fam = [&] { return Fam(rng.Below(8)); };
  auto boolean = [&] { return std::string(rng.Below(2) ? "YES" : "NO"); };
  auto size = [&] { return std::to_string(2 + rng.Below(5)); };
  std::vector<MPredicate> pool;
  std::set<std::string> seen;
  while (pool.size() < n) {
    MPredicate p;
    switch (rng.Below(17)) {
      case 0:
        p = {"musicians", false, {{Atom({"plays"}, "]=", {inst()})}}};
        break;
      case 1:
        p = {"musicians", false, {{Atom({"plays"}, "~", {inst(), inst()})}}};
        break;
      case 2:
        p = {"musicians", false, {{Atom({"plays"}, "=", {inst()})}}};
        break;
      case 3:
        p = {"musicians", false, {{Atom({"plays", "family"}, "~", {fam()})}}};
        break;
      case 4:
        p = {"musicians",
             false,
             {{Atom({"plays", "family"}, "]=", {fam(), fam()})}}};
        break;
      case 5:
        p = {"musicians",
             false,
             {{Atom({"plays"}, "~", {inst(), inst()})},
              {Atom({"union"}, "=", {boolean()})}}};
        break;
      case 6:
        p = {"musicians",
             true,
             {{Atom({"plays"}, "]=", {inst()})},
              {Atom({"plays"}, "]=", {inst()})}}};
        break;
      case 7:
        p = {"musicians",
             false,
             {{Atom({"plays"}, "~", {inst()}),
               Atom({"plays", "family"}, "=", {fam()})},
              {Atom({"union"}, "=", {boolean()})}}};
        break;
      case 8:
        p = {"musicians",
             false,
             {{Atom({"plays"}, "~", {inst(), inst(), inst()}, true)},
              {Atom({"plays", "family"}, "~", {fam()})}}};
        break;
      case 9:
        p = {"instruments", false, {{Atom({"family"}, "=", {fam()})}}};
        break;
      case 10:
        p = {"instruments",
             false,
             {{Atom({"popular"}, "=", {boolean()})},
              {Atom({"family"}, "~", {fam(), fam()})}}};
        break;
      case 11:
        p = {"music_groups",
             false,
             {{Atom({"members", "plays"}, "]=", {inst()})}}};
        break;
      case 12:
        p = {"music_groups",
             false,
             {{Atom({"size"}, rng.Below(2) ? ">" : "<=", {size()})}}};
        break;
      case 13:
        p = {"music_groups",
             false,
             {{Atom({"includes"}, "]=", {fam(), fam()})}}};
        break;
      case 14:
        p = {"music_groups",
             false,
             {{Atom({"members"}, "~", {Mus(rng.Below(nm))})}}};
        break;
      case 15:
        p = {"music_groups",
             false,
             {{Atom({"members", "plays", "family"}, "]=", {fam()})},
              {Atom({"size"}, "<=", {size()})}}};
        break;
      default:
        p = {"music_groups",
             true,
             {{Atom({"size"}, "=", {size()}),
               Atom({"includes"}, "~", {fam()})},
              {Atom({"members", "plays"}, "~", {inst()})}}};
        break;
    }
    // Duplicate constants would only repeat a predicate in another spelling.
    for (auto& g : p.groups) {
      for (MAtom& a : g) {
        std::sort(a.constants.begin(), a.constants.end());
        a.constants.erase(std::unique(a.constants.begin(), a.constants.end()),
                          a.constants.end());
      }
    }
    if (seen.insert(p.cls + "|" + p.Text()).second) pool.push_back(p);
  }
  return pool;
}

bool ReadsPlays(const MPredicate& p) {
  for (const auto& g : p.groups) {
    for (const MAtom& a : g) {
      for (const std::string& s : a.path) {
        if (s == "plays") return true;
      }
    }
  }
  return false;
}

constexpr std::uint64_t kPoolSeed = 20260101;

/// Client sessions (one thread each) and server workers. Two of each leave
/// half of a 4-core machine idle: with four of each, CPU steal on a shared
/// host stalled thread handoffs and the run-to-run spread of throughput
/// and latency tripled.
constexpr int kClients = 2;

Plan NavigatePlan(const RunConfig& cfg) {
  Plan plan;
  plan.name = "navigate";
  plan.scale = cfg.toy ? 4 : 64;
  plan.clients = kClients;
  // About 100 ops per round; calibrated so one run measures about
  // `seconds` on a 4-core machine.
  plan.rounds = cfg.toy ? 3 : std::max(1, cfg.seconds * 9);
  plan.setups = cfg.toy ? 1 : 5;
  plan.recoveries = cfg.toy ? 1 : 251;
  // The pool and its popularity order are part of the workload's make-up,
  // fixed for every seed; --seed picks the request sequence drawn from it.
  plan.pool = NavigatePool(kPoolSeed, plan.scale, cfg.toy ? 60 : 2000);
  plan.replay_ops = cfg.toy ? 300 : 12000;
  return plan;
}

/// Per client, the whole seeded op stream of `navigate`.
std::vector<std::vector<Op>> NavigateStreams(const Plan& plan,
                                             std::uint64_t seed,
                                             const Model& model) {
  const std::vector<MPredicate>& pool = plan.pool;
  const int musicians = std::max(8, 16 * plan.scale);
  const int instruments = std::max(4, 2 * plan.scale);
  const int slice = musicians / plan.clients;
  // Answers of predicates that read nothing the clients write are fixed
  // for the whole run, so those reads are checked as they come back.
  std::vector<char> stable(pool.size());
  std::vector<Names> expected(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    stable[i] = !ReadsPlays(pool[i]);
    if (stable[i]) expected[i] = model.Evaluate(pool[i]);
  }
  Zipf zipf(pool.size(), 0.9);
  std::vector<std::vector<Op>> streams(static_cast<std::size_t>(plan.clients));
  for (int c = 0; c < plan.clients; ++c) {
    BenchRng rng(Mix(seed, 2, static_cast<std::uint64_t>(c)));
    std::vector<Op>& out = streams[static_cast<std::size_t>(c)];
    for (int r = 0; r < plan.rounds; ++r) {
      const std::size_t first = out.size();
      // 100 ops: 94 pool reads, 1 read of a never-seen constant, 5
      // writes, in a seeded order.
      std::vector<int> kinds(100, 0);
      for (int w = 0; w < 5; ++w) kinds[static_cast<std::size_t>(w)] = 2;
      kinds[5] = 1;
      for (std::size_t i = kinds.size() - 1; i > 0; --i) {
        std::swap(kinds[i], kinds[rng.Below(i + 1)]);
      }
      for (int kind : kinds) {
        if (kind == 0) {
          const std::size_t i = zipf.Sample(&rng);
          Op op = QueryOp(pool[i], "query");
          op.check_now = stable[i];
          op.expected = expected[i];
          out.push_back(std::move(op));
        } else if (kind == 1) {
          // A user refining a predicate with a size no group has: the
          // constant is new to the database on every such read.
          const std::string ghost = std::to_string(1000000 + c * 100000 + r);
          MPredicate p{"music_groups", false, {{Atom({"size"}, "=", {ghost})}}};
          Op op = QueryOp(p, "query_unseen_constant");
          op.check_now = true;
          out.push_back(std::move(op));
        } else {
          const int m = c * slice + static_cast<int>(rng.Below(
                                        static_cast<std::uint64_t>(slice)));
          out.push_back(PlaysAssign(&rng, m, instruments));
        }
      }
      out[first].round_start = true;
    }
  }
  return streams;
}

// --- edit. ---

Plan EditPlan(const RunConfig& cfg) {
  Plan plan;
  plan.name = "edit";
  plan.scale = cfg.toy ? 4 : 16;
  plan.clients = kClients;
  // About 44 rounds per `--seconds`, in whole passes over a client's 16
  // instruments, so every seed makes the same number of requests.
  const int per_client = std::max(4, 2 * plan.scale) / plan.clients;
  plan.rounds = cfg.toy ? 3
                        : per_client * std::max(1, (cfg.seconds * 44 +
                                                    per_client / 2) /
                                                       per_client);
  plan.setups = cfg.toy ? 1 : 101;
  plan.recoveries = cfg.toy ? 1 : 2;
  plan.replay_ops = cfg.toy ? 200 : 3000;
  plan.derived = {
      {"string_players",
       {"musicians",
        false,
        {{Atom({"plays"}, "~", {"inst0", "inst1", "inst2", "inst3"})}}}},
      {"fam0_players",
       {"musicians", false, {{Atom({"plays", "family"}, "~", {"family0"})}}}},
      {"fam1_instruments",
       {"instruments", false, {{Atom({"family"}, "=", {"family1"})}}}},
  };
  plan.derived_attrs = {{"music_groups",
                         "kit_families",
                         "families",
                         {"members", "plays", "family"}}};
  plan.pool = {
      {"string_players", false, {{Atom({"union"}, "=", {"YES"})}}},
      {"string_players", false, {{Atom({"plays"}, "]=", {"inst0"})}}},
      {"string_players",
       false,
       {{Atom({"plays", "family"}, "~", {"family2"})}}},
      {"fam0_players", false, {{Atom({"union"}, "=", {"NO"})}}},
      {"fam0_players",
       false,
       {{Atom({"plays"}, "~", {"inst1", "inst2", "inst3"})}}},
      {"fam0_players", false, {{Atom({"plays"}, "=", {"inst1"})}}},
      {"fam1_instruments", false, {{Atom({"popular"}, "=", {"YES"})}}},
      {"fam1_instruments", false, {{Atom({"popular"}, "=", {"NO"})}}},
      {"music_groups", false, {{Atom({"kit_families"}, "]=", {"family0"})}}},
      {"music_groups",
       false,
       {{Atom({"kit_families"}, "~", {"family3", "family4"})}}},
      {"music_groups",
       false,
       {{Atom({"kit_families"}, "]=", {"family1", "family2"})},
        {Atom({"size"}, ">", {"3"})}}},
      {"music_groups",
       true,
       {{Atom({"kit_families"}, "]=", {"family5"})},
        {Atom({"size"}, "=", {"2"})}}},
  };
  return plan;
}

/// Per client, the whole seeded op stream of `edit`.
std::vector<std::vector<Op>> EditStreams(const Plan& plan, std::uint64_t seed,
                                         const Model& model) {
  const int musicians = std::max(8, 16 * plan.scale);
  const int instruments = std::max(4, 2 * plan.scale);
  const int mslice = musicians / plan.clients;
  const int islice = instruments / plan.clients;
  std::vector<std::vector<Op>> streams(static_cast<std::size_t>(plan.clients));
  for (int c = 0; c < plan.clients; ++c) {
    BenchRng rng(Mix(seed, 3, static_cast<std::uint64_t>(c)));
    std::vector<Op>& out = streams[static_cast<std::size_t>(c)];
    std::vector<int> home;
    for (int k = c * islice; k < (c + 1) * islice; ++k) {
      const std::string f =
          *model.Get("family", Inst(static_cast<std::uint64_t>(k))).begin();
      home.push_back(std::stoi(f.substr(6)));
    }
    FamilyEdits edits(c * islice, std::move(home),
                      Mix(seed, 6, static_cast<std::uint64_t>(c)));
    for (int r = 0; r < plan.rounds; ++r) {
      const std::size_t first = out.size();
      // One data-edit gesture sequence, 5 assigns and 4 view reads.
      const FamilyEdits::Edit ed = edits.Next();
      const int k = ed.inst;
      for (const isis::input::Event& e :
           FamilyEditGestures(k, ed.old_family, ed.new_family)) {
        Op op;
        op.type = MsgType::kEvent;
        op.payload = isis::input::EncodeEvent(e);
        op.write = IsEditGesture(e);
        op.op_class = op.write ? "edit_gesture" : "navigation_gesture";
        if (op.write) {
          op.attr = "family";
          op.entity = Inst(static_cast<std::uint64_t>(k));
          op.values = {Fam(static_cast<std::uint64_t>(ed.new_family))};
        }
        out.push_back(std::move(op));
      }
      for (int w = 0; w < 5; ++w) {
        const int m = c * mslice + static_cast<int>(rng.Below(
                                       static_cast<std::uint64_t>(mslice)));
        out.push_back(PlaysAssign(&rng, m, instruments));
      }
      for (int q = 0; q < 4; ++q) {
        out.push_back(QueryOp(plan.pool[rng.Below(plan.pool.size())], "query"));
      }
      out[first].round_start = true;
    }
  }
  return streams;
}

// --- Running clients. ---

struct ClientResult {
  Outcome outcome;
  Timeline timeline;
  std::vector<std::size_t> acked;  ///< Indexes of acknowledged writes.
  std::int64_t acked_writes = 0;  ///< Acknowledged data writes.
  std::int64_t rounds = 0;  ///< Rounds run before the deadline.
  std::int64_t reply_bytes = 0;
  std::int64_t reads = 0;
  std::int64_t retries = 0;
};

/// Validates one reply; wrong answers are check failures, error replies
/// are failed operations.
bool Validate(const Op& op, const Result<Frame>& resp, Outcome* outcome) {
  if (!resp.ok()) return false;
  switch (op.type) {
    case MsgType::kQuery: {
      Names names;
      if (resp->type != MsgType::kQueryResult) return false;
      if (!ParseQueryResult(resp->payload, &names)) {
        outcome->CheckFailed("malformed query reply for " + op.payload);
        return true;
      }
      if (op.check_now && names != op.expected) {
        outcome->CheckFailed("wrong answer for " + op.payload);
      }
      return true;
    }
    case MsgType::kAssign:
      return resp->type == MsgType::kOk;
    case MsgType::kEvent: {
      if (resp->type != MsgType::kScreen) return false;
      std::vector<std::string> f = isis::server::SplitFields(resp->payload);
      return !f.empty() && f[0].rfind("! ", 0) != 0;
    }
    default:
      return false;
  }
}

/// Runs `ops` in order; once `deadline` has passed, stops at the next
/// round boundary. Completion times are taken from `t_start`.
void RunClient(Server* srv, int c, const std::vector<Op>* ops,
               std::latch* start, const Clock::time_point* t_start,
               const Clock::time_point* deadline, ClientResult* out) {
  isis::server::RetryOptions ro;
  ro.max_attempts = 16;
  ro.timeout_ms = 60000;
  ro.jitter_seed = 100 + static_cast<std::uint64_t>(c);
  isis::server::RetryingClient client(
      std::make_unique<isis::server::LoopbackTransport>(
          srv, "client" + std::to_string(c)),
      ro);
  const bool connected = client.Connect().ok();
  start->arrive_and_wait();
  if (!connected) {
    for (const Op& op : *ops) out->outcome.Count(op.op_class, false);
    return;
  }
  for (std::size_t i = 0; i < ops->size(); ++i) {
    const Op& op = (*ops)[i];
    if (op.round_start) {
      if (i > 0 && Clock::now() >= *deadline) break;
      ++out->rounds;
    }
    Clock::time_point t0 = Clock::now();
    Result<Frame> resp = client.Call(op.type, op.payload);
    const double us = MicrosSince(t0);
    out->timeline.Add(SecondsSince(*t_start), us, op.write);
    const bool ok = Validate(op, resp, &out->outcome);
    out->outcome.Count(op.op_class, ok);
    if (op.write) {
      if (ok) ++out->acked_writes;
      if (ok && !op.attr.empty()) out->acked.push_back(i);
    } else {
      if (resp.ok()) {
        out->reply_bytes += static_cast<std::int64_t>(
            resp->payload.size() + isis::server::kHeaderSize);
      }
      ++out->reads;
    }
  }
  out->retries = client.counters().retries;
}

struct World {
  std::unique_ptr<CountingEnv> env;
  std::unique_ptr<Server> srv;
};

/// The server's default result-cache capacity.
constexpr std::size_t kCacheCapacity = 1024;

isis::server::ServerOptions Options(const std::string& dir, CountingEnv* env) {
  isis::server::ServerOptions o;
  o.threads = kClients;
  o.durable_dir = dir;
  o.wal_sync = isis::store::WalSyncPolicy::kGroup;
  o.env = env;
  return o;
}

/// Set-up: dataset, views, durable open with its first checkpoint, and a
/// warm-up pass that reads the most popular pool predicates once, as many
/// as the result cache holds.
World SetUp(const Plan& plan, const std::string& dir) {
  ResetDir(dir);
  World w;
  w.env = std::make_unique<CountingEnv>();
  Result<std::unique_ptr<Server>> srv =
      Server::Open(BuildWorkspace(plan), Options(dir, w.env.get()));
  if (!srv.ok()) {
    std::fprintf(stderr, "server open failed: %s\n",
                 srv.status().ToString().c_str());
    std::exit(3);
  }
  w.srv = std::move(srv).ValueOrDie();
  isis::server::LoopbackClient warm(w.srv.get());
  if (!warm.Connect("warmup").ok()) std::exit(3);
  const std::size_t warm_n =
      std::min<std::size_t>(plan.pool.size(), kCacheCapacity);
  for (std::size_t i = 0; i < warm_n; ++i) {
    const MPredicate& p = plan.pool[i];
    if (!warm.Call(MsgType::kQuery,
                   isis::server::JoinFields({p.cls, p.Text()}))
             .ok()) {
      std::exit(3);
    }
  }
  return w;
}

// --- The traced replay. ---

/// Replays `ops` single-threaded through each layer's public functions,
/// in the order the server calls them, with a span around every call.
/// Returns the replay's duration in seconds.
double Replay(const Plan& plan, const std::vector<const Op*>& ops,
                 const std::vector<int>& client_of, const std::string& dir,
                 SpanRecorder* rec) {
  namespace srv = isis::server;
  ResetDir(dir);
  CountingEnv env;
  std::unique_ptr<Workspace> ws = BuildWorkspace(plan);
  isis::sdm::Database& db = ws->db();
  Result<std::unique_ptr<isis::store::WalWriter>> wal =
      isis::store::WalWriter::CreateWithRecords(
          dir + "/replay.server.wal", &env, {{"base", isis::store::Save(*ws)}});
  if (!wal.ok()) std::exit(3);
  isis::store::GroupCommitter::Options gco;
  gco.policy = isis::store::WalSyncPolicy::kGroup;
  isis::store::GroupCommitter committer(wal->get(), gco);
  isis::query::ResultCache cache(&db);
  std::map<int, std::unique_ptr<isis::ui::SessionController>> ctrls;
  auto frame_trip = [&](const Frame& f) {
    ScopedSpan s(rec, "proto.frame");
    srv::FrameReader reader;
    reader.Feed(srv::EncodeFrame(f));
    Frame back;
    (void)reader.Next(&back);
    return back;
  };

  Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = *ops[i];
    Frame req;
    req.type = op.type;
    req.seq = static_cast<std::uint32_t>(i);
    req.payload = op.payload;
    Frame in = frame_trip(req);
    std::vector<std::string> f = srv::SplitFields(in.payload);
    Frame resp;
    if (op.type == MsgType::kQuery) {
      std::optional<isis::query::Predicate> pred;
      isis::ClassId cls;
      {
        ScopedSpan s(rec, "query.parse");
        Result<isis::ClassId> c = db.schema().FindClass(f[0]);
        if (c.ok()) {
          cls = *c;
          Result<isis::query::Predicate> p =
              isis::query::ParsePredicate(db, cls, f[1]);
          if (p.ok()) pred = std::move(p).ValueOrDie();
        }
      }
      if (!pred) continue;
      std::shared_ptr<const isis::sdm::EntitySet> result;
      std::string key;
      {
        ScopedSpan s(rec, "query.cache_lookup");
        key = isis::query::ResultCache::NormalizeKey(*pred, cls);
        result = cache.Lookup(key);
      }
      if (result == nullptr) {
        const std::uint64_t v0 = db.version();
        {
          ScopedSpan s(rec, "query.eval");
          isis::query::Evaluator ev(db);
          result = std::make_shared<const isis::sdm::EntitySet>(
              ev.EvaluateSubclass(*pred, cls));
        }
        ScopedSpan s(rec, "query.cache_insert");
        cache.Insert(key,
                     isis::live::FlattenForCache(
                         isis::live::AnalyzeAdHoc(db.schema(), cls, *pred)),
                     result, v0);
      }
      std::vector<std::string> names;
      {
        ScopedSpan s(rec, "query.names");
        names.push_back(std::to_string(result->size()));
        for (isis::EntityId e : *result) names.push_back(db.NameOf(e));
      }
      resp.type = MsgType::kQueryResult;
      resp.payload = srv::JoinFields(names);
    } else if (op.type == MsgType::kAssign) {
      {
        // The server applies a kAssign like this (session.cc ApplyAssign).
        ScopedSpan s(rec, "sdm.apply");
        isis::ClassId cls = *db.schema().FindClass(f[0]);
        isis::EntityId e = *db.FindMember(cls, f[1]);
        isis::AttributeId attr = *db.schema().FindAttribute(cls, f[2]);
        const isis::sdm::AttributeDef& def = db.schema().GetAttribute(attr);
        isis::sdm::EntitySet values;
        for (const std::string& v : isis::Split(f[3], ',')) {
          values.insert(*db.FindMember(def.value_class, v));
        }
        (void)db.SetMulti(e, attr, values);
      }
      // As Server::DoAssign: without live views, every derived view is
      // re-derived after the write.
      if (!db.options().live_views) {
        ScopedSpan s(rec, "query.maintain");
        (void)ws->ReevaluateAll();
      }
      ScopedSpan s(rec, "store.wal");
      (void)committer.Commit("assign", op.payload);
      resp.type = MsgType::kOk;
    } else {
      std::unique_ptr<isis::ui::SessionController>& ctrl = ctrls[client_of[i]];
      if (ctrl == nullptr) {
        ctrl = std::make_unique<isis::ui::SessionController>(ws.get(),
                                                             nullptr);
      }
      Result<isis::input::Event> ev = isis::input::DecodeEvent(op.payload);
      if (!ev.ok()) continue;
      {
        ScopedSpan s(rec, op.write ? "ui.write_dispatch" : "ui.read_dispatch");
        (void)ctrl->HandleEvent(*ev);
      }
      {
        ScopedSpan s(rec, "ui.render");
        resp.type = MsgType::kScreen;
        resp.payload = srv::JoinFields(
            {ctrl->message(), ctrl->Render().canvas.ToString()});
      }
      ScopedSpan s(rec, "store.wal");
      (void)committer.Commit("sevent", op.payload);
    }
    (void)frame_trip(resp);
  }
  return SecondsSince(t0);
}

}  // namespace

WorkloadResult RunServerWorkload(const RunConfig& cfg) {
  const Plan plan = cfg.workload == "edit" ? EditPlan(cfg) : NavigatePlan(cfg);
  // Every thread of the run (clients, server workers, the committer) shares
  // one CPU, so a request hands over to the next thread by a local context
  // switch. Across CPUs each handover waits for a remote wake-up, whose
  // latency on a shared virtual machine swung the median read latency by
  // 39% between sets of runs of the same code.
  const int cpu = PinToCurrentCpu();
  PrintHeader(cfg, plan.scale, plan.clients, plan.rounds, cpu);
  WorkloadResult res;
  const std::string dir = cfg.dir + "/" + plan.name;

  // Set up several times and keep the last: setup_s is their median.
  std::vector<double> setup_s;
  World w;
  for (int i = 0; i < plan.setups; ++i) {
    w = World();  // Drops the previous server (it never ran a request).
    Clock::time_point t0 = Clock::now();
    w = SetUp(plan, dir);
    setup_s.push_back(SecondsSince(t0));
  }
  res.e2e.setup_s = Percentile(setup_s, 0.5);

  Clock::time_point g0 = Clock::now();
  Model model = BuildModel(plan, w.srv->workspace());
  if (model.Dump() != model.DumpDatabase(w.srv->workspace().db())) {
    res.outcome.CheckFailed("model and database disagree after set-up");
  }
  const std::vector<std::vector<Op>> streams =
      plan.name == "edit" ? EditStreams(plan, cfg.seed, model)
                          : NavigateStreams(plan, cfg.seed, model);
  const double generate_s = SecondsSince(g0);

  const isis::server::StatsSnapshot s0 = w.srv->stats().Snapshot();
  const isis::query::ResultCache::Counters c0 =
      w.srv->result_cache()->counters();
  const CountingEnv::Totals e0 = w.env->totals();
  const std::size_t entities0 = w.srv->workspace().db().AllEntities().size();

  std::vector<ClientResult> results(streams.size());
  std::latch start(static_cast<std::ptrdiff_t>(streams.size()) + 1);
  Clock::time_point t0, deadline;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back(RunClient, w.srv.get(), static_cast<int>(c),
                         &streams[c], &start, &t0, &deadline, &results[c]);
  }
  t0 = Clock::now();
  deadline = t0 + TimedPhaseCap(cfg);
  start.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  const double elapsed = SecondsSince(t0);

  const isis::server::StatsSnapshot s1 = w.srv->stats().Snapshot();
  const isis::query::ResultCache::Counters c1 =
      w.srv->result_cache()->counters();
  const CountingEnv::Totals e1 = w.env->totals();
  const std::size_t entities1 = w.srv->workspace().db().AllEntities().size();

  Timeline timeline;
  std::int64_t acked_writes = 0, reply_bytes = 0, reads = 0, retries = 0;
  for (std::size_t c = 0; c < results.size(); ++c) {
    ClientResult& r = results[c];
    res.outcome.Merge(r.outcome);
    timeline.Append(r.timeline);
    for (std::size_t i : r.acked) {
      const Op& op = streams[c][i];
      model.Set(op.attr, op.entity, op.values);
    }
    acked_writes += r.acked_writes;
    if (r.rounds < plan.rounds) {
      std::fprintf(stderr, "# client %zu stopped at the time cap after %lld "
                   "of %d rounds\n", c, static_cast<long long>(r.rounds),
                   plan.rounds);
    }
    reply_bytes += r.reply_bytes;
    reads += r.reads;
    retries += r.retries;
  }

  Clock::time_point k0 = Clock::now();
  // Quiescent checks: every pool predicate against brute force over the
  // model, then the whole state (memberships, values, derived classes and
  // derived attribute values) against the model.
  {
    isis::server::LoopbackClient probe(w.srv.get());
    if (!probe.Connect("probe").ok()) res.outcome.CheckFailed("probe connect");
    for (std::size_t i = 0; i < plan.pool.size(); ++i) {
      const MPredicate& p = plan.pool[i];
      Names expected = model.Evaluate(p);
      if (cfg.inject_wrong_answer && i == 0) expected.insert("no-such-entity");
      Result<Frame> resp = probe.Call(
          MsgType::kQuery, isis::server::JoinFields({p.cls, p.Text()}));
      Names got;
      if (!resp.ok() || resp->type != MsgType::kQueryResult ||
          !ParseQueryResult(resp->payload, &got) || got != expected) {
        res.outcome.CheckFailed("pool answer differs from brute force: " +
                                p.cls + "|" + p.Text());
      }
    }
  }
  const std::string want = model.Dump();
  const std::string before_crash = model.DumpDatabase(w.srv->workspace().db());
  if (before_crash != want) {
    res.outcome.CheckFailed("state differs from the model: " +
                            FirstDifference(want, before_crash));
  }

  // Crash (no Shutdown) and reopen over the log the timed phase left.
  std::int64_t records = 0;
  {
    Result<isis::store::WalContents> log = isis::store::ReadWal(
        dir + "/" + plan.name + ".server.wal", w.env.get());
    if (log.ok()) records = static_cast<std::int64_t>(log->records.size());
  }
  const double checks_s = SecondsSince(k0);
  w.srv.reset();
  CopyDir(dir, dir + ".crash");
  std::vector<double> recovery_s;
  for (int i = 0; i < plan.recoveries; ++i) {
    if (i > 0) CopyDir(dir + ".crash", dir);
    Clock::time_point r0 = Clock::now();
    auto placeholder = std::make_unique<Workspace>();
    placeholder->set_name(plan.name);
    Result<std::unique_ptr<Server>> reopened =
        Server::Open(std::move(placeholder), Options(dir, w.env.get()));
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
    if (after != want) {
      res.outcome.CheckFailed("recovered state misses acknowledged writes: " +
                              FirstDifference(want, after));
    }
  }
  res.e2e.recovery_s = Percentile(recovery_s, 0.5);
  std::fprintf(stderr,
               "# phases: set-up %.2f s, model and streams %.2f s, timed %.2f "
               "s, checks %.2f s, recoveries %d x %.4f s (min %.4f, max "
               "%.4f)\n",
               res.e2e.setup_s * plan.setups, generate_s, elapsed, checks_s,
               plan.recoveries, res.e2e.recovery_s, Percentile(recovery_s, 0),
               Percentile(recovery_s, 1));

  res.e2e.ops_per_s = timeline.MedianRate(elapsed, Slices(cfg));
  res.e2e.read_p50_us = timeline.MedianP50(false, elapsed, Slices(cfg));
  res.e2e.write_p50_us = timeline.MedianP50(true, elapsed, Slices(cfg));
  res.layers.client_read_p99_us = timeline.P99(false);
  res.layers.client_write_p99_us = timeline.P99(true);
  res.e2e.wal_bytes_per_write =
      acked_writes > 0
          ? static_cast<double>(e1.wal_bytes - e0.wal_bytes) / acked_writes
          : 0.0;

  if (cfg.trace) {
    Layers& L = res.layers;
    const double sreads = static_cast<double>(s1.reads - s0.reads);
    const double swrites = static_cast<double>(s1.writes - s0.writes);
    L.server_read_lock_wait_us =
        sreads > 0 ? (s1.read_lock_wait_us - s0.read_lock_wait_us) / sreads
                   : 0;
    L.server_write_lock_wait_us =
        swrites > 0
            ? (s1.write_lock_wait_us - s0.write_lock_wait_us) / swrites
            : 0;
    L.server_queue_peak = static_cast<double>(s1.queue_peak);
    L.server_promotions = static_cast<double>(s1.promotions - s0.promotions);
    L.server_request_p50_us = s1.p50_us;
    L.server_client_retries = static_cast<double>(retries);
    L.proto_reply_bytes_per_read =
        reads > 0 ? static_cast<double>(reply_bytes) / reads : 0;
    const double hits = static_cast<double>(c1.hits - c0.hits);
    const double misses = static_cast<double>(c1.misses - c0.misses);
    L.query_cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
    L.query_cache_version_flushes =
        static_cast<double>(c1.version_flushes - c0.version_flushes);
    L.query_cache_invalidations_per_write =
        acked_writes > 0
            ? static_cast<double>(c1.invalidations - c0.invalidations) /
                  acked_writes
            : 0;
    L.query_cache_evictions = static_cast<double>(c1.evictions - c0.evictions);
    L.sdm_interned_during_run = static_cast<double>(entities1 - entities0);
    L.store_wal_syncs_per_write =
        acked_writes > 0
            ? static_cast<double>(e1.wal_syncs - e0.wal_syncs) / acked_writes
            : 0;
    const double batches = static_cast<double>(s1.wal_batches - s0.wal_batches);
    L.store_wal_group_mean =
        batches > 0 ? (s1.wal_records - s0.wal_records) / batches : 0;
    L.store_replay_us_per_record =
        records > 0 ? res.e2e.recovery_s * 1e6 / records : 0;

    // Replay a prefix of the same streams, round-robin over clients, once
    // without spans and once with them.
    std::vector<const Op*> ops;
    std::vector<int> client_of;
    for (std::size_t i = 0; ops.size() < static_cast<std::size_t>(
                                             plan.replay_ops);
         ++i) {
      bool any = false;
      for (std::size_t c = 0; c < streams.size(); ++c) {
        if (i < streams[c].size()) {
          ops.push_back(&streams[c][i]);
          client_of.push_back(static_cast<int>(c));
          any = true;
        }
      }
      if (!any) break;
    }
    SpanRecorder off(false);
    const double base = Replay(plan, ops, client_of, dir + "/replay", &off);
    SpanRecorder on(true);
    const double traced = Replay(plan, ops, client_of, dir + "/replay", &on);
    L.trace_overhead_pct = (traced - base) / base * 100;
    L.proto_frame_us = Percentile(on.Durations("proto.frame"), 0.5);
    L.query_parse_us = Percentile(on.Durations("query.parse"), 0.5);
    L.query_eval_us = Percentile(on.Durations("query.eval"), 0.5);
    L.query_names_us = Percentile(on.Durations("query.names"), 0.5);
    L.query_maintain_us_per_write =
        Mean(on.Durations("query.maintain"));
    L.ui_read_dispatch_us = Percentile(on.Durations("ui.read_dispatch"), 0.5);
    L.ui_write_dispatch_us = Percentile(on.Durations("ui.write_dispatch"), 0.5);
    L.ui_render_us = Percentile(on.Durations("ui.render"), 0.5);

    // Undo-style snapshots and checkpoints of the workload's workspace as
    // set-up builds it.
    std::vector<double> snap_us, ckpt_us;
    std::unique_ptr<Workspace> ws = BuildWorkspace(plan);
    for (int i = 0; i < 3; ++i) {
      Clock::time_point a = Clock::now();
      std::string snap = isis::store::Save(*ws);
      snap_us.push_back(MicrosSince(a));
      L.store_snapshot_bytes = static_cast<double>(snap.size());
      a = Clock::now();
      Result<std::unique_ptr<isis::store::WalWriter>> ck =
          isis::store::WalWriter::CreateWithRecords(
              dir + "/replay/ckpt.server.wal", w.env.get(),
              {{"base", isis::store::Save(*ws)}});
      ckpt_us.push_back(MicrosSince(a));
    }
    L.store_snapshot_us = Percentile(snap_us, 0.5);
    L.store_checkpoint_us = Percentile(ckpt_us, 0.5);
  }
  res.e2e.peak_rss_mb = PeakRssMb();
  return res;
}

}  // namespace isisbench
