// serve_tier: open-loop seeded arrivals of paper_exact SUBMITs through
// congestbc_router (result cache on) in front of two congestbcd workers.
// Most arrivals repeat a popular set that fits the caches; one in every
// twenty is a never-seen graph.  Four pipelined connections carry the
// traffic, so a slow reply never delays the next arrival.
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "graph/io.hpp"
#include "procs.hpp"
#include "reference.hpp"
#include "service/client.hpp"
#include "wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace svc = congestbc::service;

constexpr std::uint32_t kPopular = 32;     // fits both cache tiers
constexpr std::uint64_t kFreshEvery = 20;  // one never-seen graph per 20
constexpr unsigned kConnections = 4;
constexpr std::uint64_t kPollNs = 5'000'000;  // RESULT re-poll cadence
constexpr double kMainRate = 200.0;           // arrivals per second
// The rate ladder of the traced run, above the main phase: up to
// kLadderSteps steps of kStepSeconds, each kLadderFactor times the one
// before.
constexpr double kLadderStart = 800.0;
constexpr double kLadderFactor = 1.25;
constexpr int kLadderSteps = 8;  // 800 .. 3815 per second
constexpr double kStepSeconds = 1.5;
constexpr double kLimitMs = 250.0;     // tail latency limit of a step
constexpr double kLagVoidMs = 1000.0;  // generator lag that voids a run

struct GraphInput {
  std::string text;
  std::vector<double> want;
};

/// The popular set plus every never-seen graph drawn so far.  Sizes are
/// fixed, so the seed changes which graphs arrive but not how much work
/// they are.  The popular set spans 40..120 nodes evenly.  Every tenth
/// never-seen graph has 120 nodes and the others 40..90 (the k-th has
/// 40 + 29k mod 51): the twenty largest misses of a 20 s run's main
/// phase are then the 120-node ones, so the tail, with ten beyond it,
/// falls in the middle of like executions and not on one stray slow one.
class Inputs {
 public:
  explicit Inputs(std::uint64_t seed) : seed_(seed) {
    for (std::uint32_t i = 0; i < kPopular; ++i) {
      add(40 + 80 * i / (kPopular - 1), derive_seed(seed_, 1000 + i));
    }
  }
  /// A graph no earlier request carried.
  std::uint32_t fresh() {
    const auto n = static_cast<std::uint32_t>(
        fresh_ % 10 == 9 ? 120 : 40 + fresh_ * 29 % 51);
    return add(n, derive_seed(seed_, 5000 + fresh_++));
  }
  const GraphInput& at(std::uint32_t i) const { return graphs_[i]; }
  std::size_t size() const { return graphs_.size(); }

 private:
  std::uint32_t add(std::uint32_t n, std::uint64_t graph_seed) {
    const RefGraph g = make_ba(n, 2, graph_seed);
    graphs_.push_back(GraphInput{edge_list_text(g), brandes(g)});
    return static_cast<std::uint32_t>(graphs_.size() - 1);
  }

  std::uint64_t seed_;
  std::uint64_t fresh_ = 0;
  std::vector<GraphInput> graphs_;
};

svc::SubmitRequest submit_of(const GraphInput& g) {
  svc::SubmitRequest s;
  s.graph = g.text;
  s.backend = 1;  // paper_exact
  return s;
}

/// One arrival: a SUBMIT, then RESULT polls until the block is in hand.
struct ServeOp {
  std::uint32_t graph = 0;
  bool fresh = false;
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;
  std::uint64_t job = 0;
  std::uint64_t span = 0;
  double submit_rtt_ms = 0.0;
  double result_rtt_ms = 0.0;  ///< the RESULT call that delivered
  std::uint32_t polls = 0;     ///< RESULT calls
  bool refused = false;        ///< BUSY / draining: misses any limit
  std::string error;
  std::vector<std::uint8_t> block;
  std::uint64_t block_bits = 0;

  double latency_ms() const {
    return refused || !error.empty() ? INFINITY : ms_between(due_ns, done_ns);
  }
};

/// `count` arrivals at `rate`.  One in kFreshEvery is a never-seen graph,
/// and those arrive on a fixed grid (the seed picks its phase), so misses
/// never bunch up by chance; the others are Poisson arrivals that walk
/// seeded permutations of the popular set, so every popular graph is
/// asked for equally often.  Due times are offsets from the start.
class Schedule {
 public:
  explicit Schedule(std::uint64_t seed) : rng_(seed) {}

  std::vector<ServeOp> next(Inputs& inputs, std::uint64_t count,
                            double rate) {
    std::vector<ServeOp> ops(count);
    const std::uint64_t fresh = count / kFreshEvery;
    const double period = static_cast<double>(kFreshEvery) / rate;
    const double phase = uniform();
    for (std::uint64_t j = 0; j < fresh; ++j) {
      ops[j].fresh = true;
      ops[j].graph = inputs.fresh();
      ops[j].due_ns = static_cast<std::uint64_t>(
          (static_cast<double>(j) + phase) * period * 1e9);
    }
    const double hit_rate = rate * static_cast<double>(count - fresh) /
                            static_cast<double>(count);
    double t = 0.0;
    for (std::uint64_t i = fresh; i < count; ++i) {
      t += -std::log1p(-uniform()) / hit_rate;
      ops[i].graph = popular();
      ops[i].due_ns = static_cast<std::uint64_t>(t * 1e9);
    }
    std::stable_sort(ops.begin(), ops.end(),
                     [](const ServeOp& a, const ServeOp& b) {
                       return a.due_ns < b.due_ns;
                     });
    return ops;
  }

 private:
  std::uint32_t popular() {
    if (next_ == order_.size()) {
      order_.resize(kPopular);
      for (std::uint32_t i = 0; i < kPopular; ++i) {
        order_[i] = i;
      }
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.below(i)]);
      }
      next_ = 0;
    }
    return order_[next_++];
  }
  double uniform() {
    return static_cast<double>(rng_.next() >> 11) * (1.0 / 9007199254740992.0);
  }

  Prng rng_;
  std::vector<std::uint32_t> order_;
  std::size_t next_ = 0;
};

void record_span(const char* name, const ServeOp& op, std::uint64_t op_id,
                 std::uint64_t start, std::uint64_t end, bool root) {
  if (!tracer().enabled()) {
    return;
  }
  Span s;
  s.id = root ? op.span : tracer().next_id();
  s.parent = root ? 0 : op.span;
  s.op = op_id;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  tracer().record(s);
}

/// Drives one connection's share of a phase: sends each SUBMIT when it
/// is due, a RESULT as soon as its SUBMIT is answered, and re-polls every
/// kPollNs until the block arrives.  With `spin` it never sleeps: it polls
/// its socket and yields the core between polls.  A thread woken from a
/// timed or socket wait on a shared host runs late by tens to hundreds
/// of microseconds, varying from run to run, and that would count as the
/// tier's latency: sleeping, the main phase's p50_ms spread 37% across
/// ten seeds.  The ladder steps do not spin, so that at high rates the
/// generator leaves the cores to the tier.
void drive(Pipeline& pipe, std::vector<ServeOp>& ops,
           const std::vector<std::size_t>& mine, const Inputs& inputs,
           std::uint64_t op_base, bool spin) {
  struct Pending {
    std::size_t op;
    bool submit;
    std::uint64_t sent;
  };
  struct Poll {
    std::uint64_t at;
    std::size_t op;
  };
  std::deque<Pending> fifo;
  std::vector<Poll> polls;
  std::vector<svc::Reply> replies;
  std::size_t next = 0;
  std::size_t remaining = mine.size();
  const auto send_result = [&](std::size_t i) {
    ServeOp& op = ops[i];
    const std::uint64_t t = now_ns();
    pipe.send(svc::make_job_request(svc::MsgType::kResult, op.job));
    fifo.push_back(Pending{i, false, t});
    ++op.polls;
  };
  const auto finish = [&](std::size_t i, std::uint64_t t) {
    ServeOp& op = ops[i];
    op.done_ns = t;
    record_span("serve.op", op, op_base + i, op.due_ns, t, true);
    --remaining;
  };
  while (remaining > 0) {
    std::uint64_t now = now_ns();
    while (next < mine.size() && ops[mine[next]].due_ns <= now) {
      ServeOp& op = ops[mine[next]];
      op.span = tracer().enabled() ? tracer().next_id() : 0;
      op.sent_ns = now_ns();
      pipe.send(svc::make_submit(submit_of(inputs.at(op.graph))));
      fifo.push_back(Pending{mine[next], true, op.sent_ns});
      ++next;
    }
    for (std::size_t k = 0; k < polls.size();) {
      if (polls[k].at <= now) {
        send_result(polls[k].op);
        polls[k] = polls.back();
        polls.pop_back();
      } else {
        ++k;
      }
    }
    replies.clear();
    if (spin) {
      pipe.receive(0, replies);
      if (replies.empty()) {
        std::this_thread::yield();
      }
    } else {
      std::uint64_t wake = now + 50'000'000;
      if (next < mine.size()) {
        wake = ops[mine[next]].due_ns;
      }
      for (const Poll& p : polls) {
        wake = std::min(wake, p.at);
      }
      now = now_ns();
      pipe.receive(wake > now ? wake - now : 0, replies);
    }
    for (svc::Reply& reply : replies) {
      if (fifo.empty()) {
        throw std::runtime_error("reply without a request");
      }
      const Pending p = fifo.front();
      fifo.pop_front();
      const std::uint64_t t = now_ns();
      ServeOp& op = ops[p.op];
      if (reply.type == svc::MsgType::kError) {
        op.error = "ERROR reply: " + reply.error.message;
        finish(p.op, t);
        continue;
      }
      if (p.submit) {
        op.submit_rtt_ms = ms_between(p.sent, t);
        record_span("router.submit", op, op_base + p.op, p.sent, t, false);
        const svc::SubmitDisposition d = reply.submit.disposition;
        if (d == svc::SubmitDisposition::kQueued ||
            d == svc::SubmitDisposition::kCacheHit ||
            d == svc::SubmitDisposition::kCoalesced) {
          op.job = reply.submit.job_id;
          send_result(p.op);
        } else if (d == svc::SubmitDisposition::kBusy ||
                   d == svc::SubmitDisposition::kDraining) {
          op.refused = true;
          finish(p.op, t);
        } else {
          op.error = std::string("submit ") + svc::to_string(d) + ": " +
                     reply.submit.detail;
          finish(p.op, t);
        }
        continue;
      }
      record_span("router.result", op, op_base + p.op, p.sent, t, false);
      if (reply.result.ready) {
        op.result_rtt_ms = ms_between(p.sent, t);
        op.block = std::move(reply.result.block_bytes);
        op.block_bits = reply.result.block_bits;
        finish(p.op, t);
      } else if (reply.result.state == svc::JobState::kQueued ||
                 reply.result.state == svc::JobState::kRunning) {
        polls.push_back(Poll{t + kPollNs, p.op});
      } else {
        op.error = std::string("result ") +
                   svc::to_string(reply.result.state) + ": " +
                   reply.result.detail;
        finish(p.op, t);
      }
    }
  }
}

/// Runs a schedule over the four connections, starting 20 ms from now;
/// `spin` as for drive().
void run_phase(std::array<Pipeline, kConnections>& pipes,
               std::vector<ServeOp>& ops, const Inputs& inputs,
               std::uint64_t op_base, bool spin) {
  const std::uint64_t start = now_ns() + 20'000'000;
  std::array<std::vector<std::size_t>, kConnections> mine;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].due_ns += start;
    mine[i % kConnections].push_back(i);
  }
  std::array<std::exception_ptr, kConnections> errors;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      // Timed waits end within 1 us of their deadline, not the default
      // 50 us of timer slack.
      ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
      try {
        drive(pipes[c], ops, mine[c], inputs, op_base, spin);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
}

/// A running tier: two workers and the router in front of them.
struct Tier {
  ServerGroup group;
  std::uint16_t router = 0;
  std::array<std::uint16_t, 2> workers{};
  std::vector<int> pids;

  double cpu_ms() const {
    double total = 0.0;
    for (const int pid : pids) {
      total += sample_process(pid).cpu_ms;
    }
    return total;
  }
  double peak_rss_mb() const {
    double total = 0.0;
    for (const int pid : pids) {
      total += sample_process(pid).peak_rss_mb;
    }
    return total;
  }
};

/// Waits for every job with 1 ms between sweeps; returns the blocks.
std::vector<svc::ResultReply> await_all(svc::Client& client,
                                        const std::vector<std::uint64_t>& jobs) {
  std::vector<svc::ResultReply> out(jobs.size());
  std::vector<bool> done(jobs.size(), false);
  std::size_t left = jobs.size();
  const std::uint64_t deadline = now_ns() + 60'000'000'000ULL;
  while (left > 0) {
    bool progress = false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (done[i]) {
        continue;
      }
      svc::ResultReply r = client.result(jobs[i]);
      if (r.ready || (r.state != svc::JobState::kQueued &&
                      r.state != svc::JobState::kRunning)) {
        out[i] = std::move(r);
        done[i] = true;
        --left;
        progress = true;
      }
    }
    if (now_ns() > deadline) {
      throw std::runtime_error("set-up results never arrived");
    }
    if (!progress) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return out;
}

/// Starts the tier and fills both cache levels with the popular set.
std::unique_ptr<Tier> start_tier(const Options& options, const Inputs& inputs,
                                 std::vector<svc::ResultReply>& fill) {
  auto tier = std::make_unique<Tier>();
  const std::string log = options.work_dir + "/serve_tier.log";
  for (int w = 0; w < 2; ++w) {
    tier->group.spawn({options.daemon_bin, "--port", "0", "--workers", "1"},
                      log);
  }
  for (std::size_t w = 0; w < 2; ++w) {
    tier->workers[w] = tier->group.await_listening(w);
  }
  tier->group.spawn(
      {options.router_bin, "--port", "0", "--workers",
       "127.0.0.1:" + std::to_string(tier->workers[0]) + ",127.0.0.1:" +
           std::to_string(tier->workers[1]),
       "--health-every", "200", "--result-cache", "4096"},
      log);
  tier->router = tier->group.await_listening(2);
  for (std::size_t i = 0; i < 3; ++i) {
    tier->pids.push_back(tier->group.at(i).pid);
  }
  svc::Client client;
  client.connect("127.0.0.1", tier->router);
  std::vector<std::uint64_t> jobs;
  for (std::uint32_t i = 0; i < kPopular; ++i) {
    jobs.push_back(client.submit(submit_of(inputs.at(i))).job_id);
  }
  fill = await_all(client, jobs);
  return tier;
}

/// What check_blocks() saw delivered.
struct Delivered {
  std::uint64_t results = 0;
  double rounds = 0.0;  ///< summed over results
};

/// Checks every delivered block: it decodes, matches the benchmark's
/// Brandes, and is byte-identical to every other delivery of its graph.
Delivered check_blocks(
    const std::vector<ServeOp>& ops, const Inputs& inputs,
    std::map<std::uint32_t, std::vector<std::uint8_t>>& first,
    Outcome& result) {
  Delivered delivered;
  for (const ServeOp& op : ops) {
    ++result.attempted;
    if (!op.error.empty()) {
      result.fail(op.error);
      continue;
    }
    if (op.refused) {
      continue;  // overload answer: counted against the step's limit
    }
    const svc::ResultBlock block = decode_block(op.block, op.block_bits);
    const double err =
        max_rel_error(block.betweenness, inputs.at(op.graph).want);
    if (block.run_status != 0 || !(err <= 1e-6)) {
      result.wrong("graph " + std::to_string(op.graph) + " off by " +
                   std::to_string(err) + " relative");
    }
    const auto [it, inserted] = first.try_emplace(op.graph, op.block);
    if (!inserted && it->second != op.block) {
      result.wrong("graph " + std::to_string(op.graph) +
                   " delivered two different blocks");
    }
    delivered.rounds += static_cast<double>(block.rounds);
    ++delivered.results;
  }
  return delivered;
}

/// How a phase at `rate` arrivals per second went.  It meets the latency
/// limit with no refused (BUSY) request, its tail within the limit, and
/// the median of its last quarter within it too (a growing backlog shows
/// as late arrivals finishing ever later).
struct StepResult {
  bool ok = false;
  double offered_per_s = 0.0;   ///< arrivals per second of due times
  double answered_per_s = 0.0;  ///< answers from first due to last answer
};

StepResult judge(const std::vector<ServeOp>& ops, double rate) {
  std::vector<double> lat;
  std::uint64_t last_due = 0;
  std::uint64_t last_done = 0;
  std::size_t refused = 0;
  for (const ServeOp& op : ops) {
    lat.push_back(op.latency_ms());
    last_due = std::max(last_due, op.due_ns);
    last_done = std::max(last_done, op.done_ns);
    refused += op.refused ? 1 : 0;
  }
  const std::uint64_t first_due = ops.front().due_ns;
  const std::vector<double> last_quarter(
      lat.end() - static_cast<long>(lat.size() / 4), lat.end());
  const double tail = tail_value(lat);
  StepResult step;
  step.ok = refused == 0 && tail <= kLimitMs &&
            median(last_quarter) <= kLimitMs;
  step.offered_per_s = static_cast<double>(ops.size() - 1) /
                       (static_cast<double>(last_due - first_due) / 1e9);
  step.answered_per_s = static_cast<double>(ops.size() - refused) /
                        (static_cast<double>(last_done - first_due) / 1e9);
  std::cout << "phase: " << ops.size() << " arrivals at " << rate
            << "/s (" << step.offered_per_s << " offered, "
            << step.answered_per_s << " answered/s), tail " << tail
            << " ms, " << refused << " refused: "
            << (step.ok ? "meets" : "misses") << " the " << kLimitMs
            << " ms limit\n";
  return step;
}

}  // namespace

Outcome run_serve_tier(const Options& options) {
  Outcome result;
  Inputs inputs(options.seed);
  Schedule schedule(derive_seed(options.seed, 7));

  // Set-up: processes, the ring, and the cache fill.
  std::vector<double> setup_s;
  std::unique_ptr<Tier> tier;
  std::map<std::uint32_t, std::vector<std::uint8_t>> first_block;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (tier) {
      tier->group.stop_all();
    }
    std::vector<svc::ResultReply> fill;
    const std::uint64_t t0 = now_ns();
    tier = start_tier(options, inputs, fill);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    for (std::uint32_t i = 0; i < kPopular; ++i) {
      if (!fill[i].ready) {
        result.wrong("set-up result for popular graph not delivered");
        continue;
      }
      const svc::ResultBlock b = decode_block(fill[i].block_bytes,
                                              fill[i].block_bits);
      if (!(max_rel_error(b.betweenness, inputs.at(i).want) <= 1e-6)) {
        result.wrong("set-up result differs from Brandes");
      }
      if (rep == kSetups - 1) {
        first_block[i] = fill[i].block_bytes;
      }
    }
  }

  std::array<Pipeline, kConnections> pipes;
  for (Pipeline& p : pipes) {
    p.connect(tier->router);
  }
  const std::uint64_t count = op_count(options, kMainRate);
  std::vector<ServeOp> main_ops = schedule.next(inputs, count, kMainRate);
  std::uint64_t fresh_sent = 0;
  for (const ServeOp& op : main_ops) {
    fresh_sent += op.fresh ? 1 : 0;
  }

  const svc::StatsReply router0 = stats_of(tier->router);
  std::array<svc::StatsReply, 2> worker0{stats_of(tier->workers[0]),
                                         stats_of(tier->workers[1])};
  const double cpu0 = tier->cpu_ms();
  double untraced_p50 = 0.0;
  double traced_p50 = 0.0;
  if (!options.trace) {
    run_phase(pipes, main_ops, inputs, 1, true);
  } else {
    // First half untraced, second half traced, same schedule.
    std::vector<ServeOp> a(main_ops.begin(),
                           main_ops.begin() + static_cast<long>(count / 2));
    std::vector<ServeOp> b(main_ops.begin() + static_cast<long>(count / 2),
                           main_ops.end());
    const std::uint64_t shift = b.empty() ? 0 : b.front().due_ns;
    for (ServeOp& op : b) {
      op.due_ns -= shift;
    }
    run_phase(pipes, a, inputs, 1, true);
    tracer().enable(true);
    run_phase(pipes, b, inputs, 1 + a.size(), true);
    tracer().enable(false);
    std::vector<double> la;
    std::vector<double> lb;
    for (const ServeOp& op : a) {
      la.push_back(op.latency_ms());
    }
    for (const ServeOp& op : b) {
      lb.push_back(op.latency_ms());
    }
    untraced_p50 = median(la);
    traced_p50 = median(lb);
    main_ops = std::move(a);
    main_ops.insert(main_ops.end(), b.begin(), b.end());
  }
  const double cpu1 = tier->cpu_ms();
  const double peak_rss_mb = tier->peak_rss_mb();
  const svc::StatsReply router1 = stats_of(tier->router);
  std::array<svc::StatsReply, 2> worker1{stats_of(tier->workers[0]),
                                         stats_of(tier->workers[1])};

  const Delivered delivered =
      check_blocks(main_ops, inputs, first_block, result);
  std::uint64_t executions = 0;
  for (std::size_t w = 0; w < 2; ++w) {
    executions += worker1[w].jobs_completed - worker0[w].jobs_completed;
  }
  if (executions != fresh_sent) {
    result.wrong("workers executed " + std::to_string(executions) +
                 " jobs for " + std::to_string(fresh_sent) +
                 " never-seen graphs");
  }

  std::vector<double> latency;
  std::vector<double> submit_rtt;
  std::vector<double> result_rtt;
  std::vector<double> lag;
  std::uint64_t polls = 0;
  for (const ServeOp& op : main_ops) {
    latency.push_back(op.latency_ms());
    submit_rtt.push_back(op.submit_rtt_ms);
    if (op.polls > 0 && op.error.empty()) {
      result_rtt.push_back(op.result_rtt_ms);
    }
    lag.push_back(ms_between(op.due_ns, op.sent_ns));
    polls += op.polls;
  }
  const double lag_max = *std::max_element(lag.begin(), lag.end());
  std::cout << "generator lag, due to sent: median " << median(lag)
            << " ms, max " << lag_max << " ms\n";
  if (lag_max > kLagVoidMs) {
    throw std::runtime_error("open-loop generator ran " +
                             std::to_string(lag_max) + " ms late: run void");
  }
  const double ops = static_cast<double>(main_ops.size());

  const StepResult main_step = judge(main_ops, kMainRate);
  if (!options.trace) {
    result.add("setup_s", median(setup_s), "s");
    result.add("p50_ms", median(latency), "ms");
    result.add("tail_ms", tail_value(latency), "ms");
    result.add("ops_per_s", main_step.answered_per_s, "1/s");
    result.add("peak_rss_mb", peak_rss_mb, "MiB");
    result.add("cpu_ms_per_op", (cpu1 - cpu0) / ops, "ms");
    result.add("sim_rounds",
               delivered.rounds / static_cast<double>(delivered.results),
               "rounds");
    tier->group.stop_all();
    return result;
  }

  // Traced run: the rate ladder, the main phase then ever faster steps
  // until one misses the limit.  service.max_ok_rps is the arrival rate
  // of the last step that met it, as its due times realised it.  It is
  // a per-layer figure: where a shared 4-vCPU host puts the tier's knee
  // moves by more than one step from run to run.
  double max_ok = main_step.ok ? main_step.offered_per_s : 0.0;
  {
    std::uint64_t op_base = 1 + main_ops.size();
    const auto run_step = [&](double rate) {
      std::vector<ServeOp> arrivals = schedule.next(
          inputs, static_cast<std::uint64_t>(rate * kStepSeconds), rate);
      run_phase(pipes, arrivals, inputs, op_base, false);
      op_base += arrivals.size();
      // Every block is checked, but only the main phase counts attempts:
      // an error reply in a step is one more way for it to miss the limit.
      Outcome step_check;
      (void)check_blocks(arrivals, inputs, first_block, step_check);
      for (const std::string& p : step_check.problems) {
        result.wrong(p);
      }
      return judge(arrivals, rate);
    };
    StepResult step = main_step;
    double rate = kLadderStart;
    for (int k = 0; step.ok && k < kLadderSteps; ++k) {
      step = run_step(rate);
      if (!step.ok) {
        // Once more: one stall of a shared host should not end the ladder.
        step = run_step(rate);
      }
      if (step.ok) {
        max_ok = step.offered_per_s;
      }
      rate *= kLadderFactor;
    }
  }

  // The router hop, measured on graphs cached on both workers but not in
  // the router, so the router forwards each SUBMIT.
  std::vector<double> via_router;
  std::vector<double> direct;
  {
    std::array<svc::Client, 2> workers;
    svc::Client router;
    router.connect("127.0.0.1", tier->router);
    for (std::size_t w = 0; w < 2; ++w) {
      workers[w].connect("127.0.0.1", tier->workers[w]);
    }
    for (int probe = 0; probe < 8; ++probe) {
      const svc::SubmitRequest s = submit_of(inputs.at(inputs.fresh()));
      for (std::size_t w = 0; w < 2; ++w) {
        (void)await_all(workers[w], {workers[w].submit(s).job_id});
      }
      const std::uint64_t before = stats_of(tier->workers[0]).submits;
      const std::uint64_t t0 = now_ns();
      (void)router.submit(s);
      via_router.push_back(ms_between(t0, now_ns()));
      const std::size_t home =
          stats_of(tier->workers[0]).submits > before ? 0 : 1;
      for (int rep = 0; rep < 4; ++rep) {
        std::uint64_t t = now_ns();
        (void)workers[home].submit(s);
        direct.push_back(ms_between(t, now_ns()));
        t = now_ns();
        (void)router.submit(s);
        via_router.push_back(ms_between(t, now_ns()));
      }
    }
  }

  const std::uint64_t r0 = now_ns();
  for (std::uint32_t i = 0; i < inputs.size(); ++i) {
    (void)congestbc::read_edge_list_text(inputs.at(i).text);
  }
  const double read_ms = ms_between(r0, now_ns());

  const double submits =
      static_cast<double>(router1.submits - router0.submits);
  result.add("graph.read_ms", read_ms, "ms");
  result.add("service.submit_rtt_ms", median(submit_rtt), "ms");
  result.add("service.result_rtt_ms", median(result_rtt), "ms");
  result.add("service.polls_per_result",
             static_cast<double>(polls) /
                 static_cast<double>(delivered.results),
             "count");
  result.add("service.hit_ratio",
             static_cast<double>(router1.cache_hits - router0.cache_hits) /
                 submits,
             "ratio");
  result.add("service.executions", static_cast<double>(executions), "count");
  result.add("service.job_p99_ms",
             std::max(worker1[0].latency_p99_ms, worker1[1].latency_p99_ms),
             "ms");
  result.add("service.utilization",
             (worker1[0].worker_utilization + worker1[1].worker_utilization) /
                 2.0,
             "ratio");
  result.add("service.max_ok_rps", max_ok, "1/s");
  result.add("cluster.hop_ms", median(via_router) - median(direct), "ms");
  result.add("bench.lag_ms", lag_max, "ms");
  result.add("bench.lag_p50_ms", median(lag), "ms");
  result.add("obs.overhead", traced_p50 / untraced_p50, "x");
  write_trace(options, merge_trace(""));
  tier->group.stop_all();
  return result;
}

}  // namespace perfbench
