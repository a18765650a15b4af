/// \file server_test.cpp
/// \brief The multi-session server: wire protocol framing, session
/// isolation, reader/writer linearizability against a single-threaded
/// oracle, backpressure shedding, durable shutdown and crash recovery.
///
/// Runs under ThreadSanitizer in CI (ISIS_SANITIZE=thread) -- the
/// concurrency assertions here are what that job is for.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "datasets/instrumental_music.h"
#include "datasets/scaled_music.h"
#include "query/eval.h"
#include "query/parser.h"
#include "server/faults.h"
#include "server/loopback.h"
#include "server/net.h"
#include "server/proto.h"
#include "server/retry.h"
#include "server/session.h"
#include "store/file.h"
#include "store/serializer.h"
#include "sync_gate_env.h"

namespace isis::server {
namespace {

// --- Protocol framing. ---

TEST(ProtoTest, RoundTripsFrames) {
  for (const std::string& payload :
       {std::string(""), std::string("plain"),
        std::string("fields|with|bars\nand newlines"),
        std::string("\x00\x01\xff binary", 10)}) {
    Frame in;
    in.type = MsgType::kQuery;
    in.seq = 42;
    in.payload = payload;
    std::string wire = EncodeFrame(in);
    Frame out;
    std::size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(wire, &out, &consumed), DecodeResult::kOk);
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.seq, in.seq);
    EXPECT_EQ(out.payload, in.payload);
  }
}

TEST(ProtoTest, EveryTruncationNeedsMore) {
  Frame in;
  in.type = MsgType::kEvent;
  in.seq = 7;
  in.payload = "cmd view contents";
  std::string wire = EncodeFrame(in);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    Frame out;
    std::size_t consumed = 1;
    EXPECT_EQ(DecodeFrame(wire.substr(0, n), &out, &consumed),
              DecodeResult::kNeedMore)
        << "prefix length " << n;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(ProtoTest, RejectsCorruptFrames) {
  Frame in;
  in.type = MsgType::kQuery;
  in.seq = 3;
  in.payload = "musicians|e.plays ]= {flute}";
  const std::string wire = EncodeFrame(in);
  Frame out;
  std::size_t consumed = 0;
  std::string error;

  std::string bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_EQ(DecodeFrame(bad_magic, &out, &consumed, &error),
            DecodeResult::kError);
  EXPECT_EQ(error, "bad magic");

  std::string bad_type = wire;
  bad_type[2] = '\x3f';  // 63: between the request and response ranges.
  EXPECT_EQ(DecodeFrame(bad_type, &out, &consumed, &error),
            DecodeResult::kError);

  std::string bad_flags = wire;
  bad_flags[3] = '\x80';  // A flag bit this version does not know.
  EXPECT_EQ(DecodeFrame(bad_flags, &out, &consumed, &error),
            DecodeResult::kError);
  EXPECT_EQ(error, "unknown header flags");

  std::string flipped_payload = wire;
  flipped_payload[kHeaderSize + 4] ^= 0x20;  // CRC must catch this.
  EXPECT_EQ(DecodeFrame(flipped_payload, &out, &consumed, &error),
            DecodeResult::kError);
  EXPECT_EQ(error, "payload checksum mismatch");

  std::string oversize = wire;
  oversize[8] = '\xff';  // payload_len low byte
  oversize[9] = '\xff';
  oversize[10] = '\xff';
  oversize[11] = '\x7f';
  EXPECT_EQ(DecodeFrame(oversize, &out, &consumed, &error),
            DecodeResult::kError);
  EXPECT_EQ(error, "payload too large");
}

TEST(ProtoTest, RoundTripsHeaderExtensions) {
  // Every flag combination: none (a v0 frame), deadline only, write_seq
  // only, both.
  const struct {
    std::uint32_t deadline_ms;
    std::uint64_t write_seq;
  } cases[] = {{0, 0}, {1500, 0}, {0, 77}, {250, 0x1122334455667788ull}};
  for (const auto& c : cases) {
    Frame in;
    in.type = MsgType::kAssign;
    in.seq = 9;
    in.deadline_ms = c.deadline_ms;
    in.write_seq = c.write_seq;
    in.payload = "musicians|musician0|plays|inst1";
    const std::string wire = EncodeFrame(in);
    if (c.deadline_ms == 0 && c.write_seq == 0) {
      EXPECT_EQ(wire[3], '\0') << "extension-free frames stay v0 on the wire";
    }
    Frame out;
    std::size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(wire, &out, &consumed), DecodeResult::kOk);
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(out.deadline_ms, c.deadline_ms);
    EXPECT_EQ(out.write_seq, c.write_seq);
    EXPECT_EQ(out.payload, in.payload);
    // No prefix decodes, none is mistaken for a complete frame.
    for (std::size_t n = 0; n < wire.size(); ++n) {
      std::size_t used = 1;
      EXPECT_EQ(DecodeFrame(wire.substr(0, n), &out, &used),
                DecodeResult::kNeedMore)
          << "prefix length " << n;
    }
  }
}

TEST(ProtoTest, FrameReaderReassemblesByteByByte) {
  Frame a{MsgType::kRender, 1, ""};
  Frame b{MsgType::kQuery, 2, "musicians|e.plays ]= {inst0}"};
  std::string wire = EncodeFrame(a) + EncodeFrame(b);
  FrameReader reader;
  std::vector<Frame> decoded;
  for (char c : wire) {
    reader.Feed(&c, 1);
    Frame f;
    while (reader.Next(&f) == DecodeResult::kOk) decoded.push_back(f);
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].type, MsgType::kRender);
  EXPECT_EQ(decoded[1].payload, b.payload);
  EXPECT_EQ(reader.pending(), 0u);
}

// --- Server fixtures. ---

std::unique_ptr<Server> OpenScaled(int threads, int queue_capacity = 64,
                                   const std::string& durable_dir = "",
                                   const std::string& db_name = "") {
  ServerOptions options;
  options.threads = threads;
  options.queue_capacity = queue_capacity;
  options.durable_dir = durable_dir;
  std::unique_ptr<query::Workspace> ws = datasets::BuildScaledMusic(2);
  // Durable tests run in parallel from the same temp dir; a unique name
  // keeps their WAL/checkpoint files from colliding.
  if (!db_name.empty()) ws->set_name(db_name);
  Result<std::unique_ptr<Server>> opened =
      Server::Open(std::move(ws), options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).ValueOrDie();
}

/// What the server's kQueryResult payload should be, computed
/// single-threaded: the oracle for the byte-identical comparisons.
std::string OraclePayload(const query::Workspace& ws, const std::string& cls,
                          const std::string& predicate) {
  const sdm::Database& db = ws.db();
  Result<ClassId> cr = db.schema().FindClass(cls);
  EXPECT_TRUE(cr.ok());
  ClassId c = cr.ValueOrDie();
  Result<query::Predicate> pr = query::ParsePredicate(db, c, predicate);
  EXPECT_TRUE(pr.ok());
  query::Predicate pred = std::move(pr).ValueOrDie();
  query::Evaluator ev(db);
  sdm::EntitySet result = ev.EvaluateSubclass(pred, c);
  std::vector<std::string> fields;
  fields.push_back(std::to_string(result.size()));
  for (EntityId e : result) fields.push_back(db.NameOf(e));
  return JoinFields(fields);
}

// --- Basic request flow. ---

TEST(ServerTest, HelloQueryMatchesOracle) {
  std::unique_ptr<Server> srv = OpenScaled(4);
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("t").ok());
  EXPECT_GE(client.session_id(), 1);

  const std::string predicate = "e.plays ]= {inst0}";
  Result<Frame> resp =
      client.Call(MsgType::kQuery, JoinFields({"musicians", predicate}));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->type, MsgType::kQueryResult) << resp->payload;
  EXPECT_EQ(resp->payload,
            OraclePayload(srv->workspace(), "musicians", predicate));

  Result<Frame> explain =
      client.Call(MsgType::kExplain, JoinFields({"musicians", predicate}));
  ASSERT_TRUE(explain.ok());
  ASSERT_EQ(explain->type, MsgType::kExplainResult);
  EXPECT_NE(explain->payload.find("clause 1"), std::string::npos)
      << explain->payload;
  srv->Shutdown();
}

TEST(ServerTest, QueryErrorsComeBackTyped) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("t").ok());

  Result<Frame> resp = client.Call(
      MsgType::kQuery, JoinFields({"no_such_class", "e.plays ]= {inst0}"}));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->type, MsgType::kError);
  EXPECT_EQ(resp->payload.rfind("NotFound|", 0), 0u) << resp->payload;

  LoopbackClient stranger(srv.get());
  // No Connect: session id -1 is unknown.
  Result<Frame> unknown = stranger.Call(MsgType::kRender, "");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->type, MsgType::kError);
  srv->Shutdown();
}

TEST(ServerTest, SessionsKeepIndependentUiState) {
  ServerOptions options;
  options.threads = 4;
  Result<std::unique_ptr<Server>> opened =
      Server::Open(datasets::BuildInstrumentalMusic(), options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Server> srv = std::move(opened).ValueOrDie();

  LoopbackClient a(srv.get());
  LoopbackClient b(srv.get());
  ASSERT_TRUE(a.Connect("a").ok());
  ASSERT_TRUE(b.Connect("b").ok());
  ASSERT_NE(a.session_id(), b.session_id());
  EXPECT_EQ(srv->session_count(), 2);

  // A navigates into a class; B stays at the forest.
  Result<Frame> ev =
      a.Call(MsgType::kEvent, "pick class:musicians");
  ASSERT_TRUE(ev.ok());
  ASSERT_EQ(ev->type, MsgType::kScreen) << ev->payload;

  Result<std::string> screen_a = a.Render();
  Result<std::string> screen_b = b.Render();
  ASSERT_TRUE(screen_a.ok());
  ASSERT_TRUE(screen_b.ok());
  EXPECT_NE(*screen_a, *screen_b);
  // Both sessions see the same shared schema, though: the class A picked
  // exists on B's forest too.
  EXPECT_NE(screen_b->find("musicians"), std::string::npos);

  Result<Frame> bye = a.Call(MsgType::kBye, "");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye->type, MsgType::kOk);
  EXPECT_EQ(srv->session_count(), 1);
  srv->Shutdown();
}

// --- Concurrency. ---

/// N readers poll a query while one writer rewrites musicians' kits to
/// {inst0}; reader counts must be non-decreasing (each write only adds
/// players of inst0) and the final answer must be byte-identical to a
/// single-threaded oracle that applied the same writes.
TEST(ServerTest, ReadersSeeMonotoneCountsUnderOneWriter) {
  constexpr int kReaders = 3;
  constexpr int kWrites = 12;
  const std::string predicate = "e.plays ]= {inst0}";

  std::unique_ptr<Server> srv = OpenScaled(4);
  std::atomic<bool> done{false};
  std::atomic<bool> monotone{true};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      LoopbackClient client(srv.get());
      ASSERT_TRUE(client.Connect("reader").ok());
      long long last = -1;
      while (!done.load()) {
        Result<Frame> resp = client.Call(
            MsgType::kQuery, JoinFields({"musicians", predicate}));
        ASSERT_TRUE(resp.ok());
        ASSERT_EQ(resp->type, MsgType::kQueryResult) << resp->payload;
        long long count = std::stoll(SplitFields(resp->payload)[0]);
        if (count < last) monotone.store(false);
        last = count;
      }
    });
  }

  LoopbackClient writer(srv.get());
  ASSERT_TRUE(writer.Connect("writer").ok());
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(writer
                    .Assign("musicians", "musician" + std::to_string(i),
                            "plays", "inst0")
                    .ok());
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(monotone.load());

  // Oracle: same writes, single-threaded, then the same query.
  std::unique_ptr<query::Workspace> oracle = datasets::BuildScaledMusic(2);
  datasets::ScaledMusicHandles h = datasets::ResolveScaledMusic(*oracle);
  sdm::Database& odb = oracle->db();
  Result<EntityId> inst0 = odb.FindMember(h.instruments, "inst0");
  ASSERT_TRUE(inst0.ok());
  for (int i = 0; i < kWrites; ++i) {
    Result<EntityId> m =
        odb.FindMember(h.musicians, "musician" + std::to_string(i));
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(odb.SetMulti(*m, h.plays, {*inst0}).ok());
  }
  Result<Frame> final_resp = writer.Call(
      MsgType::kQuery, JoinFields({"musicians", predicate}));
  ASSERT_TRUE(final_resp.ok());
  ASSERT_EQ(final_resp->type, MsgType::kQueryResult);
  EXPECT_EQ(final_resp->payload,
            OraclePayload(*oracle, "musicians", predicate));
  srv->Shutdown();
}

/// A query whose constant was never interned runs while interning is
/// frozen; the server must transparently promote it to the exclusive lock
/// and still answer correctly.
TEST(ServerTest, PromotesReadsThatInternUnseenConstants) {
  std::unique_ptr<Server> srv = OpenScaled(4);
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("t").ok());

  // No group has size 123456; the integer itself has never been seen, so a
  // frozen parse cannot intern it.
  Result<Frame> resp = client.Call(
      MsgType::kQuery, JoinFields({"music_groups", "e.size = {123456}"}));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->type, MsgType::kQueryResult) << resp->payload;
  EXPECT_EQ(SplitFields(resp->payload)[0], "0");
  EXPECT_GE(srv->stats().Snapshot().promotions, 1);
  srv->Shutdown();
}

TEST(ServerTest, ShedsWhenASessionQueueOverflows) {
  // One worker and a tiny queue: a flood of async requests must overflow.
  std::unique_ptr<Server> srv = OpenScaled(1, /*queue_capacity=*/2);
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("flood").ok());

  constexpr int kBurst = 40;
  isis::Mutex mu;
  isis::CondVar cv;
  int responded = 0;
  int retries = 0;
  int answered = 0;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client
                    .CallAsync(MsgType::kQuery,
                               JoinFields({"musicians",
                                           "e.plays ]= {inst0}"}),
                               [&](const Frame& resp) {
                                 isis::MutexLock lock(mu);
                                 ++responded;
                                 if (resp.type == MsgType::kRetry) {
                                   ++retries;
                                 } else if (resp.type ==
                                            MsgType::kQueryResult) {
                                   ++answered;
                                 }
                                 cv.NotifyOne();
                               })
                    .ok());
  }
  isis::MutexLock lock(mu);
  cv.Wait(lock, [&] { return responded == kBurst; });
  EXPECT_EQ(retries + answered, kBurst);
  EXPECT_GT(retries, 0) << "queue of 2 never overflowed under a burst of "
                        << kBurst;
  EXPECT_GT(answered, 0);
  EXPECT_GE(srv->stats().Snapshot().sheds, retries);
  lock.Unlock();
  srv->Shutdown();
}

TEST(ServerTest, StatsRequestReportsCounters) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("t").ok());
  ASSERT_TRUE(
      client.Query("musicians", "e.plays ]= {inst0}").ok());

  Result<Frame> resp = client.Call(MsgType::kStats, "");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->type, MsgType::kStatsResult);
  EXPECT_NE(resp->payload.find("\"requests\""), std::string::npos);
  EXPECT_NE(resp->payload.find("\"p95_us\""), std::string::npos);

  std::string final_line = srv->Shutdown();
  EXPECT_NE(final_line.find("\"server_stats\""), std::string::npos);
  StatsSnapshot s = srv->stats().Snapshot();
  EXPECT_GE(s.requests, 3);  // hello + query + stats
  EXPECT_GE(s.reads, 1);
  EXPECT_EQ(s.queue_depth, 0) << "shutdown must drain every queue";
}

// --- Fault tolerance: deadlines, heartbeats, resume, dedup. ---

/// Blocking HandleFrame round trip for hand-built frames (the loopback
/// client cannot set header extensions).
Frame CallRaw(Server* srv, std::int64_t sid, const Frame& req) {
  isis::Mutex mu;
  isis::CondVar cv;
  bool ready = false;
  Frame result;
  srv->HandleFrame(sid, req, [&](const Frame& resp) {
    isis::MutexLock lock(mu);
    result = resp;
    ready = true;
    cv.NotifyOne();
  });
  isis::MutexLock lock(mu);
  cv.Wait(lock, [&] { return ready; });
  return result;
}

TEST(ServerTest, PingPongEchoesWithoutASession) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  Frame ping;
  ping.type = MsgType::kPing;
  ping.seq = 5;
  ping.payload = "are-you-there";
  // No hello first: liveness probes need no session.
  Frame pong = CallRaw(srv.get(), -1, ping);
  EXPECT_EQ(pong.type, MsgType::kPong);
  EXPECT_EQ(pong.seq, 5u);
  EXPECT_EQ(pong.payload, "are-you-there");
  EXPECT_EQ(srv->stats().Snapshot().heartbeats, 1);
  srv->Shutdown();
}

TEST(ServerTest, ExpiredRequestsAreDroppedBeforeDispatch) {
  // One worker and a deep queue: a burst of 1ms-deadline queries cannot all
  // be served in time, and the stragglers must come back kDeadlineExceeded
  // without ever running. The result cache stays off: with it, 299 of the
  // 300 identical queries are hash-probe hits and the queue drains inside
  // the 1ms budget -- this test needs evaluation to stay expensive.
  ServerOptions options;
  options.threads = 1;
  options.queue_capacity = 512;
  options.result_cache = false;
  Result<std::unique_ptr<Server>> opened =
      Server::Open(datasets::BuildScaledMusic(2), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Server> srv = std::move(opened).ValueOrDie();
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("deadline").ok());

  constexpr int kBurst = 300;
  isis::Mutex mu;
  isis::CondVar cv;
  int responded = 0;
  int expired = 0;
  int answered = 0;
  for (int i = 0; i < kBurst; ++i) {
    Frame req;
    req.type = MsgType::kQuery;
    req.seq = static_cast<std::uint32_t>(i + 10);
    // A generous budget for the head of the queue (those must answer), a
    // 1ms budget for the rest (the ~30ms of queued work ahead of them
    // guarantees stragglers).
    req.deadline_ms = i < 10 ? 10000 : 1;
    req.payload = JoinFields({"musicians", "e.plays ]= {inst0}"});
    srv->HandleFrame(client.session_id(), req, [&](const Frame& resp) {
      isis::MutexLock lock(mu);
      ++responded;
      if (resp.type == MsgType::kDeadlineExceeded) ++expired;
      if (resp.type == MsgType::kQueryResult) ++answered;
      cv.NotifyOne();
    });
  }
  {
    isis::MutexLock lock(mu);
    cv.Wait(lock, [&] { return responded == kBurst; });
    EXPECT_GT(expired, 0) << "1ms deadlines all survived a " << kBurst
                          << "-deep queue on one worker";
    EXPECT_GT(answered, 0) << "the head of the queue was still in budget";
  }
  EXPECT_GE(srv->stats().Snapshot().deadline_drops, expired);
  srv->Shutdown();
}

TEST(ServerTest, ResentWritesDedupOnWriteSeq) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("dedup").ok());
  const std::int64_t sid = client.session_id();

  Frame first;
  first.type = MsgType::kAssign;
  first.seq = 100;
  first.write_seq = 7;
  first.payload = JoinFields({"musicians", "musician0", "plays", "inst1"});
  Frame resp = CallRaw(srv.get(), sid, first);
  ASSERT_EQ(resp.type, MsgType::kOk) << resp.payload;

  // A *different* mutation arriving under the same write_seq is by
  // definition a resend of the first (the client reuses the seq only on
  // resends): the cached response comes back and nothing is applied.
  Frame resend;
  resend.type = MsgType::kAssign;
  resend.seq = 101;
  resend.write_seq = 7;
  resend.payload = JoinFields({"musicians", "musician1", "plays", "inst1"});
  Frame cached = CallRaw(srv.get(), sid, resend);
  EXPECT_EQ(cached.type, MsgType::kOk);
  EXPECT_EQ(cached.seq, 101u) << "cached response must carry the new seq";
  EXPECT_EQ(srv->stats().Snapshot().dedup_hits, 1);

  Result<std::vector<std::string>> players =
      client.Query("musicians", "e.plays ]= {inst1}");
  ASSERT_TRUE(players.ok());
  EXPECT_NE(std::find(players->begin(), players->end(), "musician0"),
            players->end());
  EXPECT_EQ(std::find(players->begin(), players->end(), "musician1"),
            players->end())
      << "the deduped resend must not have applied";

  // A fresh write_seq applies normally.
  Frame next;
  next.type = MsgType::kAssign;
  next.seq = 102;
  next.write_seq = 8;
  next.payload = JoinFields({"musicians", "musician1", "plays", "inst1"});
  EXPECT_EQ(CallRaw(srv.get(), sid, next).type, MsgType::kOk);
  players = client.Query("musicians", "e.plays ]= {inst1}");
  ASSERT_TRUE(players.ok());
  EXPECT_NE(std::find(players->begin(), players->end(), "musician1"),
            players->end());
  srv->Shutdown();
}

TEST(ServerTest, HelloWithResumeReattachesTheSession) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("resume-me").ok());
  const std::int64_t sid = client.session_id();
  ASSERT_EQ(srv->session_count(), 1);

  Frame hello;
  hello.type = MsgType::kHello;
  hello.seq = 50;
  hello.payload = JoinFields({"resume-me", std::to_string(sid)});
  Frame resp = CallRaw(srv.get(), -1, hello);
  ASSERT_EQ(resp.type, MsgType::kOk) << resp.payload;
  EXPECT_EQ(SplitFields(resp.payload)[0], std::to_string(sid));
  EXPECT_EQ(srv->session_count(), 1) << "resume must not mint a session";
  EXPECT_EQ(srv->stats().Snapshot().resumes, 1);

  // Resuming a session the server never had falls back to a fresh one.
  Frame stale;
  stale.type = MsgType::kHello;
  stale.seq = 51;
  stale.payload = JoinFields({"resume-me", "999999"});
  Frame fresh = CallRaw(srv.get(), -1, stale);
  ASSERT_EQ(fresh.type, MsgType::kOk);
  EXPECT_NE(SplitFields(fresh.payload)[0], "999999");
  EXPECT_EQ(srv->session_count(), 2);
  srv->Shutdown();
}

// --- Notifications. ---

TEST(ServerTest, SubscribersSeeWritesFromOtherSessions) {
  std::unique_ptr<Server> srv = OpenScaled(4);
  LoopbackClient watcher(srv.get());
  LoopbackClient writer(srv.get());
  ASSERT_TRUE(watcher.Connect("watcher").ok());
  ASSERT_TRUE(writer.Connect("writer").ok());

  Result<Frame> sub =
      watcher.Call(MsgType::kSubscribe, JoinFields({"musicians"}));
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(sub->type, MsgType::kOk);

  ASSERT_TRUE(writer.Assign("musicians", "musician0", "plays", "inst1").ok());

  Result<Frame> poll = watcher.Call(MsgType::kPoll, "");
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll->type, MsgType::kOk);
  std::vector<std::string> fields = SplitFields(poll->payload);
  ASSERT_GE(fields.size(), 2u);
  EXPECT_NE(std::stoi(fields[0]), 0);
  EXPECT_NE(poll->payload.find("musician0"), std::string::npos)
      << poll->payload;

  // The writer did not subscribe: nothing pending there.
  Result<Frame> writer_poll = writer.Call(MsgType::kPoll, "");
  ASSERT_TRUE(writer_poll.ok());
  EXPECT_EQ(SplitFields(writer_poll->payload)[0], "0");
  srv->Shutdown();
}

// --- Durability. ---

std::string DurableDir() { return ::testing::TempDir(); }

void WipeDurable(const std::string& db_name) {
  store::FileEnv* env = store::FileEnv::Default();
  for (const char* suffix :
       {".server.wal", ".server.wal.tmp", ".isis", ".isis.tmp"}) {
    (void)env->Remove(DurableDir() + "/" + db_name + suffix);
  }
}

TEST(ServerTest, CleanShutdownSurvivesRestart) {
  WipeDurable("SrvClean");
  {
    std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), "SrvClean");
    LoopbackClient client(srv.get());
    ASSERT_TRUE(client.Connect("t").ok());
    ASSERT_TRUE(
        client.Assign("musicians", "musician3", "plays", "inst0").ok());
    srv->Shutdown();
  }
  // Restart with a *fresh* workspace: the durable state must win.
  std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), "SrvClean");
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("t").ok());
  Result<std::vector<std::string>> players =
      client.Query("musicians", "e.plays ]= {inst0}");
  ASSERT_TRUE(players.ok());
  EXPECT_NE(std::find(players->begin(), players->end(), "musician3"),
            players->end());
  srv->Shutdown();
  WipeDurable("SrvClean");
}

TEST(ServerTest, CrashRecoveryReplaysTheWal) {
  WipeDurable("SrvCrash");
  {
    std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), "SrvCrash");
    LoopbackClient client(srv.get());
    ASSERT_TRUE(client.Connect("t").ok());
    ASSERT_TRUE(
        client.Assign("musicians", "musician5", "plays", "inst0").ok());
    // UI events are durable too.
    Result<Frame> ev = client.Call(MsgType::kEvent, "pick class:musicians");
    ASSERT_TRUE(ev.ok());
    ASSERT_EQ(ev->type, MsgType::kScreen);
    // No Shutdown(): the destructor is the crash.
  }
  std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), "SrvCrash");
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("t").ok());
  Result<std::vector<std::string>> players =
      client.Query("musicians", "e.plays ]= {inst0}");
  ASSERT_TRUE(players.ok());
  EXPECT_NE(std::find(players->begin(), players->end(), "musician5"),
            players->end());
  srv->Shutdown();
  WipeDurable("SrvCrash");
}

// --- The log thread: replies after durability, fail-stop, draining. ---

std::unique_ptr<Server> OpenDurableOn(store::FileEnv* env,
                                      const std::string& db_name) {
  ServerOptions options;
  options.threads = 2;
  options.durable_dir = DurableDir();
  options.env = env;
  std::unique_ptr<query::Workspace> ws = datasets::BuildScaledMusic(2);
  ws->set_name(db_name);
  Result<std::unique_ptr<Server>> opened =
      Server::Open(std::move(ws), options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).ValueOrDie();
}

Frame AssignFrame(std::uint32_t seq, std::uint64_t write_seq,
                  const std::string& entity, const std::string& values) {
  Frame f;
  f.type = MsgType::kAssign;
  f.seq = seq;
  f.write_seq = write_seq;
  f.payload = JoinFields({"musicians", entity, "plays", values});
  return f;
}

// fsyncgate: after a failed fsync the server must not ack anything again.
// The failing write answers kError (and so does its resend), later writes
// are refused before they apply, and reads keep working.
TEST(ServerTest, FailedCommitAnswersErrorAndTheServerGoesReadOnly) {
  WipeDurable("SrvFailStop");
  // Count the fsyncs Open performs, so the fault lands on the first commit.
  int open_syncs = 0;
  {
    store::FaultInjectingEnv counting(store::FaultPlan{},
                                      store::FileEnv::Default());
    std::unique_ptr<Server> srv = OpenDurableOn(&counting, "SrvFailStop");
    open_syncs = counting.syncs();
  }
  WipeDurable("SrvFailStop");
  store::FaultPlan plan;
  plan.fail_sync = open_syncs;
  store::FaultInjectingEnv failing(plan, store::FileEnv::Default());
  std::unique_ptr<Server> srv = OpenDurableOn(&failing, "SrvFailStop");
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("t").ok());
  const std::int64_t sid = client.session_id();

  Frame failed =
      CallRaw(srv.get(), sid, AssignFrame(10, 1, "musician0", "inst1"));
  EXPECT_EQ(failed.type, MsgType::kError) << failed.payload;
  // The dedup window caches the final answer: a resend is not an OK either.
  Frame resent =
      CallRaw(srv.get(), sid, AssignFrame(11, 1, "musician0", "inst1"));
  EXPECT_EQ(resent.type, MsgType::kError) << resent.payload;
  EXPECT_EQ(resent.seq, 11u);

  const std::string before = store::Save(srv->workspace());
  Frame refused =
      CallRaw(srv.get(), sid, AssignFrame(12, 2, "musician1", "inst2,inst3"));
  EXPECT_EQ(refused.type, MsgType::kError);
  EXPECT_EQ(refused.payload, failed.payload) << "refused with the WAL error";
  EXPECT_EQ(store::Save(srv->workspace()), before)
      << "a write after the WAL failure was applied";

  Result<std::vector<std::string>> players =
      client.Query("musicians", "e.plays ]= {inst1}");
  ASSERT_TRUE(players.ok()) << players.status().ToString();
  EXPECT_EQ(srv->stats().Snapshot().wal_failed, 1);
  EXPECT_NE(srv->Shutdown().find("\"wal_failed\": 1"), std::string::npos);
  WipeDurable("SrvFailStop");
}

// K sessions fire bursts of durable writes and Shutdown() follows at once,
// while the log thread is parked in the first batch's fsync: every write is
// answered OK before the checkpoint exists, and the restarted server holds
// all of them.
TEST(ServerTest, ShutdownAnswersEveryQueuedWriteBeforeTheCheckpoint) {
  WipeDurable("SrvBurst");
  const std::string checkpoint = DurableDir() + "/SrvBurst.isis";
  constexpr int kClients = 4;
  constexpr int kWrites = 8;  // kClients * kWrites musicians, one write each.
  store::SyncGateEnv gate(store::FileEnv::Default());
  isis::Mutex mu;
  int answered = 0;
  int ok = 0;
  int after_checkpoint = 0;
  std::string at_shutdown;
  {
    std::unique_ptr<Server> srv = OpenDurableOn(&gate, "SrvBurst");
    std::vector<std::unique_ptr<LoopbackClient>> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<LoopbackClient>(srv.get()));
      ASSERT_TRUE(clients.back()->Connect("c" + std::to_string(c)).ok());
    }
    gate.Arm();
    for (int i = 0; i < kWrites; ++i) {
      for (int c = 0; c < kClients; ++c) {
        const int m = c + kClients * i;
        ASSERT_TRUE(
            clients[static_cast<std::size_t>(c)]
                ->CallAsync(MsgType::kAssign,
                            JoinFields({"musicians",
                                        "musician" + std::to_string(m),
                                        "plays",
                                        "inst" + std::to_string(m % 4)}),
                            [&](const Frame& resp) {
                              const bool late =
                                  store::FileEnv::Default()->Exists(
                                      checkpoint);
                              isis::MutexLock lock(mu);
                              ++answered;
                              if (resp.type == MsgType::kOk) ++ok;
                              if (late) ++after_checkpoint;
                            })
                .ok());
      }
    }
    gate.AwaitHeld();
    std::thread stopper([&srv] { srv->Shutdown(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.Release();
    stopper.join();
    {
      isis::MutexLock lock(mu);
      EXPECT_EQ(answered, kClients * kWrites);
      EXPECT_EQ(ok, kClients * kWrites);
      EXPECT_EQ(after_checkpoint, 0);
    }
    at_shutdown = store::Save(srv->workspace());
  }
  std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), "SrvBurst");
  EXPECT_EQ(store::Save(srv->workspace()), at_shutdown);
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("t").ok());
  for (int v = 0; v < 4; ++v) {
    Result<std::vector<std::string>> players = client.Query(
        "musicians", "e.plays = {inst" + std::to_string(v) + "}");
    ASSERT_TRUE(players.ok());
    for (int m = v; m < kClients * kWrites; m += 4) {
      EXPECT_NE(std::find(players->begin(), players->end(),
                          "musician" + std::to_string(m)),
                players->end())
          << "musician" << m << " lost its acked write";
    }
  }
  srv->Shutdown();
  WipeDurable("SrvBurst");
}

// The crash path with commits still queued: the log thread is parked in
// an fsync while the server is destroyed without Shutdown(). The
// destructor must join it -- writing and answering the queue -- and a
// restart must hold every write that was acknowledged.
TEST(ServerTest, CrashWithQueuedCommitsJoinsTheLogThreadAndRecovers) {
  WipeDurable("SrvCrashQueued");
  store::SyncGateEnv gate(store::FileEnv::Default());
  constexpr int kWrites = 6;
  isis::Mutex mu;
  int answered = 0;
  std::vector<int> acked;
  {
    std::unique_ptr<Server> srv = OpenDurableOn(&gate, "SrvCrashQueued");
    LoopbackClient client(srv.get());
    ASSERT_TRUE(client.Connect("t").ok());
    gate.Arm();
    for (int i = 0; i < kWrites; ++i) {
      ASSERT_TRUE(
          client
              .CallAsync(MsgType::kAssign,
                         JoinFields({"musicians",
                                     "musician" + std::to_string(i), "plays",
                                     "inst" + std::to_string(i % 4)}),
                         [&, i](const Frame& resp) {
                           isis::MutexLock lock(mu);
                           ++answered;
                           if (resp.type == MsgType::kOk) acked.push_back(i);
                         })
              .ok());
    }
    gate.AwaitHeld();  // The first commit is mid-fsync; the rest queue.
    std::thread crash([&srv] { srv.reset(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.Release();
    crash.join();
  }
  {
    isis::MutexLock lock(mu);
    EXPECT_EQ(answered, kWrites) << "a queued write was never answered";
    EXPECT_EQ(acked.size(), static_cast<std::size_t>(kWrites));
  }
  std::unique_ptr<Server> srv =
      OpenScaled(2, 64, DurableDir(), "SrvCrashQueued");
  LoopbackClient client(srv.get());
  ASSERT_TRUE(client.Connect("t").ok());
  for (int i : acked) {
    Result<std::vector<std::string>> players = client.Query(
        "musicians", "e.plays = {inst" + std::to_string(i % 4) + "}");
    ASSERT_TRUE(players.ok());
    EXPECT_NE(std::find(players->begin(), players->end(),
                        "musician" + std::to_string(i)),
              players->end())
        << "acked write to musician" << i << " lost in the crash";
  }
  srv->Shutdown();
  WipeDurable("SrvCrashQueued");
}

// --- Derived views on the durable write path. ---

/// A scaled music workspace named `db_name` with a derived subclass and a
/// derived attribute over `plays`, like the benchmark's edit workload.
std::unique_ptr<query::Workspace> ScaledWithViews(const std::string& db_name) {
  std::unique_ptr<query::Workspace> ws = datasets::BuildScaledMusic(2);
  ws->set_name(db_name);
  sdm::Database& db = ws->db();
  const datasets::ScaledMusicHandles h = datasets::ResolveScaledMusic(*ws);
  ClassId fam0 = *db.CreateSubclass("fam0_players", h.musicians,
                                    sdm::Membership::kEnumerated);
  Result<query::Predicate> pred =
      query::ParsePredicate(db, h.musicians, "e.plays.family ~ {family0}");
  EXPECT_TRUE(pred.ok() && ws->DefineSubclassMembership(fam0, *pred).ok());
  AttributeId kit =
      *db.CreateAttribute(h.music_groups, "kit_families", h.families, true);
  Result<query::Term> term = query::ParseTerm(db, h.families, h.music_groups,
                                              "x.members.plays.family");
  EXPECT_TRUE(term.ok() &&
              ws->DefineAttributeDerivation(
                    kit, query::AttributeDerivation::Assign(*term))
                  .ok());
  return ws;
}

std::unique_ptr<Server> OpenWithViews(const std::string& db_name) {
  ServerOptions options;
  options.threads = 2;
  options.durable_dir = DurableDir();
  Result<std::unique_ptr<Server>> opened =
      Server::Open(ScaledWithViews(db_name), options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).ValueOrDie();
}

// kAssigns and the paper's (re)assign gesture change the data under a
// derived subclass and a derived attribute; after a crash, recovery must
// rebuild them exactly: equal to the pre-crash state, and to every view
// re-derived from scratch over the recovered data (the ReevaluateAll
// oracle).
TEST(ServerTest, CrashRecoveryMaintainsDerivedViews) {
  WipeDurable("SrvViews");
  std::string before_crash;
  {
    std::unique_ptr<Server> srv = OpenWithViews("SrvViews");
    LoopbackClient client(srv.get());
    ASSERT_TRUE(client.Connect("t").ok());
    ASSERT_TRUE(
        client.Assign("musicians", "musician3", "plays", "inst0,inst2").ok());
    // Move inst1 into family0, or out of it, with the data-edit gesture.
    const sdm::Database& db = srv->workspace().db();
    const datasets::ScaledMusicHandles h =
        datasets::ResolveScaledMusic(srv->workspace());
    EntityId inst1 = *db.FindEntity(h.instruments, "inst1");
    const std::string old_family = db.NameOf(db.GetSingle(inst1, h.family));
    const std::string new_family =
        old_family == "family0" ? "family1" : "family0";
    const std::vector<std::string> gesture = {
        "pick class:instruments",     "cmd view contents",
        "pick member:inst1",          "cmd follow",
        "pick attr:family",           "pick member:" + new_family,
        "pick member:" + old_family, "cmd (re)assign att. value"};
    for (const std::string& ev : gesture) {
      Result<Frame> resp = client.Call(MsgType::kEvent, ev);
      ASSERT_TRUE(resp.ok());
      ASSERT_EQ(resp->type, MsgType::kScreen);
      ASSERT_EQ(resp->payload.find("! "), std::string::npos)
          << ev << ": " << resp->payload.substr(0, 120);
    }
    ASSERT_EQ(db.NameOf(db.GetSingle(inst1, h.family)), new_family);
    ASSERT_TRUE(client.Assign("musicians", "musician5", "plays", "inst1").ok());
    before_crash = store::Save(srv->workspace());
    // No Shutdown(): the destructor is the crash.
  }
  std::unique_ptr<Server> srv = OpenWithViews("SrvViews");
  const std::string recovered = store::Save(srv->workspace());
  EXPECT_EQ(recovered, before_crash);
  Result<std::unique_ptr<query::Workspace>> oracle = store::Load(recovered);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_TRUE((*oracle)->ReevaluateAll().ok());
  EXPECT_EQ(store::Save(**oracle), recovered);
  // The writes moved the views, so stale views would have differed.
  std::unique_ptr<query::Workspace> initial = ScaledWithViews("SrvViews");
  const sdm::Database& now = srv->workspace().db();
  ClassId fam0 = *now.schema().FindClass("fam0_players");
  EXPECT_NE(now.Members(fam0), initial->db().Members(fam0));
  srv->Shutdown();
  WipeDurable("SrvViews");
}

// A cyclic ("liar") derivation set oscillating by a kAssign: the reply is
// the engine's Consistency error, and the write itself stands.
TEST(ServerTest, CyclicDerivationFailsTheAssign) {
  std::unique_ptr<query::Workspace> ws = datasets::BuildInstrumentalMusic();
  sdm::Database& db = ws->db();
  ClassId musicians = *db.schema().FindClass("musicians");
  ClassId liars =
      *db.CreateSubclass("liars", musicians, sdm::Membership::kEnumerated);
  Result<query::Predicate> liar = query::ParsePredicate(
      db, musicians, "e.plays ]= {violin} and e not[= liars");
  ASSERT_TRUE(liar.ok()) << liar.status().ToString();
  ASSERT_TRUE(ws->DefineSubclassMembership(liars, *liar).ok());
  ServerOptions options;
  options.threads = 2;
  Result<std::unique_ptr<Server>> srv = Server::Open(std::move(ws), options);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  LoopbackClient client(srv->get());
  ASSERT_TRUE(client.Connect("t").ok());
  Result<Frame> resp = client.Call(
      MsgType::kAssign, JoinFields({"musicians", "Ray", "plays", "violin"}));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->type, MsgType::kError);
  EXPECT_EQ(resp->payload.rfind("Consistency|", 0), 0u) << resp->payload;
  Result<std::vector<std::string>> violinists =
      client.Query("musicians", "e.plays ]= {violin}");
  ASSERT_TRUE(violinists.ok());
  EXPECT_NE(std::find(violinists->begin(), violinists->end(), "Ray"),
            violinists->end());
  // Reported once: the next write, which the liar does not read, is
  // acknowledged.
  Status next = client.Assign("instruments", "flute", "family", "woodwind");
  EXPECT_TRUE(next.ok()) << next.ToString();
  (*srv)->Shutdown();
}

// --- TCP transport. ---

TEST(ServerTest, TcpRoundTrip) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  TcpServer tcp(srv.get());
  Status st = tcp.Start(0);
  if (!st.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: " << st.ToString();
  }
  {
    TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", tcp.port(), "tcp-test").ok());
    EXPECT_GE(client.session_id(), 1);
    Result<Frame> resp = client.Call(
        MsgType::kQuery, JoinFields({"musicians", "e.plays ]= {inst0}"}));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->type, MsgType::kQueryResult) << resp->payload;
    EXPECT_EQ(resp->payload,
              OraclePayload(srv->workspace(), "musicians",
                            "e.plays ]= {inst0}"));
    Result<Frame> bye = client.Call(MsgType::kBye, "");
    ASSERT_TRUE(bye.ok());
    EXPECT_EQ(bye->type, MsgType::kOk);
  }
  tcp.Stop();
  srv->Shutdown();
}

TEST(ServerTest, IdleConnectionsAreReapedAndPingKeepsAlive) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  // Wide margins: the chatty client pings every ~75ms against a 500ms
  // timeout, so even a sanitizer-slowed round trip stays attached, while
  // the idle one sits silent for ~900ms, well past the deadline.
  TcpServerOptions topts;
  topts.idle_timeout_ms = 500;
  TcpServer tcp(srv.get(), topts);
  Status st = tcp.Start(0);
  if (!st.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: " << st.ToString();
  }

  // An idle connection dies; the one that pings survives the same span.
  TcpClient idle;
  TcpClient chatty;
  ASSERT_TRUE(idle.Connect("127.0.0.1", tcp.port(), "idle").ok());
  ASSERT_TRUE(chatty.Connect("127.0.0.1", tcp.port(), "chatty").ok());
  for (int i = 0; i < 12; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(75));
    Result<Frame> pong = chatty.Call(MsgType::kPing, "kk");
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_EQ(pong->type, MsgType::kPong);
  }
  // 900ms of silence total: well past the 500ms timeout.
  Result<Frame> dead = idle.Call(
      MsgType::kQuery, JoinFields({"musicians", "e.plays ]= {inst0}"}));
  EXPECT_FALSE(dead.ok()) << "the reaped connection still answered";
  Result<Frame> alive = chatty.Call(
      MsgType::kQuery, JoinFields({"musicians", "e.plays ]= {inst0}"}));
  EXPECT_TRUE(alive.ok()) << alive.status().ToString();
  EXPECT_GE(srv->stats().Snapshot().idle_reaps, 1);
  tcp.Stop();
  srv->Shutdown();
}

TEST(ServerTest, PeerClosesAreClassifiedCleanVsTruncated) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  TcpServer tcp(srv.get());
  Status st = tcp.Start(0);
  if (!st.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: " << st.ToString();
  }

  auto dial = [&]() {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(tcp.port()));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  };
  auto wait_for = [&](auto pred) {
    for (int i = 0; i < 200 && !pred(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  };

  // Clean: a whole frame, read its response, close on the boundary. (The
  // pong must be drained first -- closing with unread data in the receive
  // buffer sends RST, not a clean FIN.)
  {
    int fd = dial();
    Frame ping;
    ping.type = MsgType::kPing;
    ping.seq = 1;
    std::string wire = EncodeFrame(ping);
    ASSERT_EQ(write(fd, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    FrameReader reader;
    Frame pong;
    for (;;) {
      char buf[256];
      ssize_t n = read(fd, buf, sizeof(buf));
      ASSERT_GT(n, 0);
      reader.Feed(buf, static_cast<std::size_t>(n));
      if (reader.Next(&pong) == DecodeResult::kOk) break;
    }
    EXPECT_EQ(pong.type, MsgType::kPong);
    close(fd);
    EXPECT_TRUE(
        wait_for([&] { return srv->stats().Snapshot().eof_clean >= 1; }));
  }

  // Truncated: half a frame, then the sender dies.
  {
    int fd = dial();
    Frame ping;
    ping.type = MsgType::kPing;
    ping.seq = 2;
    ping.payload = "half";
    std::string wire = EncodeFrame(ping);
    ASSERT_EQ(write(fd, wire.data(), kHeaderSize / 2),
              static_cast<ssize_t>(kHeaderSize / 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    close(fd);
    EXPECT_TRUE(
        wait_for([&] { return srv->stats().Snapshot().eof_truncated >= 1; }));
  }
  tcp.Stop();
  srv->Shutdown();
}

// --- The retry layer over deterministic fault schedules. ---

RetryOptions QuickRetries() {
  RetryOptions o;
  o.max_attempts = 10;
  o.timeout_ms = 5000;
  o.base_backoff_ms = 1;
  o.max_backoff_ms = 4;
  return o;
}

TEST(RetryTest, HonorsRetryHintsWithBackoff) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  auto faulty = std::make_unique<FaultInjectingTransport>(
      std::make_unique<LoopbackTransport>(srv.get(), "hints"),
      FaultSchedule{.retry_hint_first_calls = 3});
  const FaultInjectingTransport* faults = faulty.get();
  RetryingClient client(std::move(faulty), QuickRetries());
  ASSERT_TRUE(client.Connect().ok());

  Result<std::vector<std::string>> players =
      client.Query("musicians", "e.plays ]= {inst0}");
  ASSERT_TRUE(players.ok()) << players.status().ToString();
  EXPECT_EQ(client.counters().retry_hints, 3);
  EXPECT_EQ(client.counters().retries, 3);
  EXPECT_EQ(faults->counts().retry_hints, 3);
  srv->Shutdown();
}

TEST(RetryTest, LostWriteResponseResendsAndDedupes) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  auto faulty = std::make_unique<FaultInjectingTransport>(
      std::make_unique<LoopbackTransport>(srv.get(), "lost-resp"),
      FaultSchedule{.fail_first_calls = 1});
  RetryingClient client(std::move(faulty), QuickRetries());
  ASSERT_TRUE(client.Connect().ok());
  const std::int64_t sid = client.session_id();

  // First CallFrame: the server applies the assign but the response is
  // lost and the connection dies. The client must reconnect, resume the
  // session and resend -- and the server must answer from the dedup window
  // rather than apply twice.
  ASSERT_TRUE(client.Assign("musicians", "musician2", "plays", "inst1").ok());
  EXPECT_EQ(client.session_id(), sid) << "reconnect must resume, not remint";
  EXPECT_EQ(client.counters().resumed, 1);
  EXPECT_EQ(client.counters().transport_errors, 1);
  StatsSnapshot s = srv->stats().Snapshot();
  EXPECT_EQ(s.dedup_hits, 1);
  EXPECT_EQ(s.resumes, 1);

  Result<std::vector<std::string>> players =
      client.Query("musicians", "e.plays ]= {inst1}");
  ASSERT_TRUE(players.ok());
  EXPECT_NE(std::find(players->begin(), players->end(), "musician2"),
            players->end());
  srv->Shutdown();
}

TEST(RetryTest, ExhaustsAttemptsAgainstADeadTransport) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  FaultSchedule schedule;
  schedule.connect_fail_prob = 1.0;  // Every dial fails.
  auto faulty = std::make_unique<FaultInjectingTransport>(
      std::make_unique<LoopbackTransport>(srv.get(), "unlucky"), schedule);
  RetryOptions opts = QuickRetries();
  opts.max_attempts = 3;
  RetryingClient client(std::move(faulty), opts);
  Status st = client.Connect();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(client.counters().attempts, 3);
  srv->Shutdown();
}

}  // namespace
}  // namespace isis::server
