// Tests for the interactive debug subsystem: the RSP packet codec, DebugHub
// breakpoint/watchpoint/stepping semantics at 1 and 4 cores, the
// observation-only guarantee (a hub that is attached but idle leaves every
// registry workload bit-identical to a plain run), and a socket-level GDB
// stub session.
#include <algorithm>
#include <arpa/inet.h>
#include <cstring>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/error.hpp"
#include "debug/hub.hpp"
#include "debug/rsp.hpp"
#include "debug/stub.hpp"
#include "energy/energy.hpp"
#include "kernels/runner.hpp"
#include "rvasm/assembler.hpp"
#include "sim/cluster.hpp"
#include "sim/params.hpp"
#include "workload/workload.hpp"

namespace copift::debug {
namespace {

using kernels::GeneratedKernel;
using workload::Variant;
using workload::WorkloadConfig;

// --- RSP codec ---------------------------------------------------------------

TEST(RspCodec, ChecksumMatchesProtocolExamples) {
  // gdb's canonical example: "$OK#9a".
  EXPECT_EQ(rsp::checksum("OK"), 0x9a);
  EXPECT_EQ(rsp::checksum(""), 0x00);
  EXPECT_EQ(rsp::checksum("g"), 'g');
}

TEST(RspCodec, EscapeRoundTripsSpecialBytes) {
  const std::string payload = "a$b#c}d";
  const std::string escaped = rsp::escape(payload);
  EXPECT_EQ(escaped, "a}\x04" "b}\x03" "c}]d");
  EXPECT_EQ(rsp::unescape(escaped), payload);
  // Every byte value survives a round trip.
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  EXPECT_EQ(rsp::unescape(rsp::escape(all)), all);
}

TEST(RspCodec, FrameProducesWellFormedPackets) {
  EXPECT_EQ(rsp::frame("OK"), "$OK#9a");
  // The checksum is computed over the *escaped* body.
  const std::string framed = rsp::frame("$");
  EXPECT_EQ(framed.substr(0, 3), "$}\x04");
  EXPECT_EQ(framed.substr(3, 1), "#");
}

TEST(RspCodec, HexHelpers) {
  EXPECT_EQ(rsp::to_hex("OK"), "4f4b");
  EXPECT_EQ(rsp::from_hex("4f4b").value(), "OK");
  EXPECT_FALSE(rsp::from_hex("4f4").has_value());   // odd length
  EXPECT_FALSE(rsp::from_hex("zz").has_value());    // non-hex
  EXPECT_EQ(rsp::hex_u32_le(0x12345678u), "78563412");
  EXPECT_EQ(rsp::parse_u32_le("78563412").value(), 0x12345678u);
  EXPECT_EQ(rsp::hex_u64_le(0x1122334455667788ull), "8877665544332211");
  EXPECT_EQ(rsp::parse_u64_le("8877665544332211").value(), 0x1122334455667788ull);
  EXPECT_EQ(rsp::parse_hex_num("10ab").value(), 0x10abu);
  EXPECT_FALSE(rsp::parse_hex_num("").has_value());
  EXPECT_FALSE(rsp::parse_hex_num("12345678123456789").has_value());  // 17 digits
}

TEST(RspCodec, ReaderParsesFramesAcksAndInterrupts) {
  rsp::PacketReader reader;
  reader.feed("+$OK#9a-\x03");
  auto e1 = reader.next();
  ASSERT_TRUE(e1.has_value());
  EXPECT_EQ(e1->kind, rsp::PacketReader::Event::Kind::kAck);
  auto e2 = reader.next();
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(e2->kind, rsp::PacketReader::Event::Kind::kPacket);
  EXPECT_EQ(e2->payload, "OK");
  auto e3 = reader.next();
  ASSERT_TRUE(e3.has_value());
  EXPECT_EQ(e3->kind, rsp::PacketReader::Event::Kind::kNack);
  auto e4 = reader.next();
  ASSERT_TRUE(e4.has_value());
  EXPECT_EQ(e4->kind, rsp::PacketReader::Event::Kind::kInterrupt);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(RspCodec, ReaderHandlesIncrementalFeedAndEscapes) {
  // Feed an escaped frame one byte at a time; the packet must only pop out
  // once complete, with the payload unescaped.
  const std::string payload = "X$#}Y";
  const std::string framed = rsp::frame(payload);
  rsp::PacketReader reader;
  for (std::size_t i = 0; i + 1 < framed.size(); ++i) {
    reader.feed(framed.substr(i, 1));
    EXPECT_FALSE(reader.next().has_value()) << "byte " << i;
  }
  reader.feed(framed.substr(framed.size() - 1));
  const auto event = reader.next();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, rsp::PacketReader::Event::Kind::kPacket);
  EXPECT_EQ(event->payload, payload);
}

TEST(RspCodec, ReaderFlagsBadChecksumAndSkipsGarbage) {
  rsp::PacketReader reader;
  reader.feed("garbage$OK#00noise$OK#9a");
  auto bad = reader.next();
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->kind, rsp::PacketReader::Event::Kind::kBadChecksum);
  auto good = reader.next();
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->kind, rsp::PacketReader::Event::Kind::kPacket);
  EXPECT_EQ(good->payload, "OK");
}

// A '$' before the '#' starts a new frame (frames escape '$'): the partial
// frame is dropped and the next one is still delivered.
TEST(RspCodec, ReaderResyncsOnDollarInsideFrame) {
  rsp::PacketReader reader;
  reader.feed("$abc" + rsp::frame("qSupported"));
  const auto event = reader.next();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, rsp::PacketReader::Event::Kind::kPacket);
  EXPECT_EQ(event->payload, "qSupported");
  EXPECT_FALSE(reader.next().has_value());
}

// A frame that never terminates cannot grow the buffer without bound: past
// PacketSize it is dropped with one bad-checksum event, and a valid frame
// after it is delivered.
TEST(RspCodec, ReaderBoundsAnUnterminatedFrame) {
  rsp::PacketReader reader;
  reader.feed("$");
  const std::string chunk(4096, 'a');
  std::size_t most = 0;
  for (int i = 0; i < 256; ++i) {  // 1 MiB
    reader.feed(chunk);
    most = std::max(most, reader.buffered());
  }
  EXPECT_LE(most, rsp::kPacketSize);
  reader.feed(rsp::frame("OK"));
  const auto bad = reader.next();
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->kind, rsp::PacketReader::Event::Kind::kBadChecksum);
  const auto good = reader.next();
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->kind, rsp::PacketReader::Event::Kind::kPacket);
  EXPECT_EQ(good->payload, "OK");
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
}

// --- DebugHub ----------------------------------------------------------------

struct HubFixture {
  GeneratedKernel kernel;
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<DebugHub> hub;

  HubFixture(const std::string& workload, Variant variant, std::uint32_t cores,
             std::uint32_t n = 256) {
    WorkloadConfig cfg;
    cfg.n = n;
    cfg.block = 32;
    cfg.cores = cores;
    const auto wl = workload::WorkloadRegistry::instance().at(workload);
    kernel = wl->instantiate(variant, cfg);
    sim::SimParams params;
    params.num_cores = cores;
    cluster = std::make_unique<sim::Cluster>(rvasm::assemble(kernel.source), params);
    kernels::populate_inputs(*cluster, kernel);
    hub = std::make_unique<DebugHub>(*cluster);
  }
};

TEST(DebugHub, BreakpointStopsAtLabelSingleCore) {
  HubFixture f("axpy", Variant::kCopift, 1);
  const std::uint32_t bp = f.cluster->program().symbol("body_begin");
  f.hub->set_breakpoint(bp);
  const Stop stop = f.hub->resume();
  EXPECT_EQ(stop.reason, Stop::Reason::kBreakpoint);
  EXPECT_EQ(stop.hart, 0u);
  EXPECT_EQ(stop.addr, bp);
  EXPECT_EQ(f.hub->pc(0), bp);
  // Stopped-state access: sp is live, GPR writes round-trip.
  EXPECT_NE(f.hub->read_gpr(0, 2), 0u);
  const std::uint32_t t6 = f.hub->read_gpr(0, 31);
  f.hub->write_gpr(0, 31, 0xdeadbeef);
  EXPECT_EQ(f.hub->read_gpr(0, 31), 0xdeadbeefu);
  f.hub->write_gpr(0, 31, t6);
  // Continue to a clean exit once the breakpoint is gone.
  EXPECT_TRUE(f.hub->clear_breakpoint(bp));
  const Stop done = f.hub->resume();
  EXPECT_EQ(done.reason, Stop::Reason::kExited);
  EXPECT_EQ(done.exit_code, 0u);
  EXPECT_NO_THROW(kernels::verify_outputs(*f.cluster, f.kernel));
}

TEST(DebugHub, BreakpointHitsEveryHartAtFourCores) {
  HubFixture f("axpy", Variant::kCopift, 4);
  const std::uint32_t bp = f.cluster->program().symbol("body_begin");
  f.hub->set_breakpoint(bp);
  std::set<unsigned> seen;
  for (int i = 0; i < 64 && seen.size() < 4; ++i) {
    const Stop stop = f.hub->resume();
    ASSERT_EQ(stop.reason, Stop::Reason::kBreakpoint) << "iteration " << i;
    EXPECT_EQ(stop.addr, bp);
    EXPECT_EQ(f.hub->pc(stop.hart), bp);
    seen.insert(stop.hart);
  }
  EXPECT_EQ(seen, (std::set<unsigned>{0, 1, 2, 3}));
  EXPECT_TRUE(f.hub->clear_breakpoint(bp));
  const Stop done = f.hub->resume();
  EXPECT_EQ(done.reason, Stop::Reason::kExited);
  EXPECT_NO_THROW(kernels::verify_outputs(*f.cluster, f.kernel));
}

TEST(DebugHub, SingleStepAdvancesOneInstruction) {
  HubFixture f("axpy", Variant::kBaseline, 1);
  const std::uint32_t bp = f.cluster->program().symbol("body_begin");
  f.hub->set_breakpoint(bp);
  ASSERT_EQ(f.hub->resume().reason, Stop::Reason::kBreakpoint);
  // Step instruction by instruction through the unrolled loop body: the PC
  // must move to the next word each time (straight-line fld/fmadd/fsd code).
  std::uint32_t pc = f.hub->pc(0);
  for (int i = 0; i < 8; ++i) {
    const Stop stop = f.hub->step_instruction(0);
    EXPECT_EQ(stop.reason, Stop::Reason::kStep);
    EXPECT_EQ(f.hub->pc(0), pc + 4) << "step " << i;
    pc = f.hub->pc(0);
  }
}

TEST(DebugHub, StepThenContinueMatchesPlainRunCycles) {
  // Run A: plain. Run B: breakpoint, 10 single steps, a cycle step, then
  // continue. Total cycles must be identical — interactive control is pure
  // observation.
  HubFixture plain("axpy", Variant::kCopift, 4);
  const auto plain_result = plain.cluster->run();
  ASSERT_TRUE(plain_result.halted);

  HubFixture f("axpy", Variant::kCopift, 4);
  const std::uint32_t bp = f.cluster->program().symbol("body_begin");
  f.hub->set_breakpoint(bp);
  ASSERT_EQ(f.hub->resume().reason, Stop::Reason::kBreakpoint);
  for (int i = 0; i < 10; ++i) f.hub->step_instruction(0);
  f.hub->step_cycle();
  f.hub->clear_breakpoint(bp);
  const Stop done = f.hub->resume();
  EXPECT_EQ(done.reason, Stop::Reason::kExited);
  EXPECT_EQ(f.cluster->cycles(), plain_result.cycles);
  EXPECT_EQ(done.exit_code, plain_result.exit_code);
}

TEST(DebugHub, WriteWatchpointFiresOnStore) {
  // Baseline axpy stores results to yarr with plain fsd instructions.
  HubFixture f("axpy", Variant::kBaseline, 1);
  const std::uint32_t yarr = f.cluster->program().symbol("yarr");
  f.hub->set_watchpoint(yarr, 8, WatchKind::kWrite);
  const Stop stop = f.hub->resume();
  EXPECT_EQ(stop.reason, Stop::Reason::kWatchpoint);
  EXPECT_EQ(stop.watch_kind, WatchKind::kWrite);
  EXPECT_GE(stop.addr, yarr);
  EXPECT_LT(stop.addr, yarr + 8);
  EXPECT_TRUE(f.hub->clear_watchpoint(yarr, 8, WatchKind::kWrite));
  EXPECT_EQ(f.hub->resume().reason, Stop::Reason::kExited);
}

TEST(DebugHub, ReadWatchpointFiresOnLoadNotStore) {
  // xarr is input-only in baseline axpy: a read watch fires, and by the time
  // anything touches it the first load must come before any store.
  HubFixture f("axpy", Variant::kBaseline, 1);
  const std::uint32_t xarr = f.cluster->program().symbol("xarr");
  f.hub->set_watchpoint(xarr, 8, WatchKind::kRead);
  const Stop stop = f.hub->resume();
  EXPECT_EQ(stop.reason, Stop::Reason::kWatchpoint);
  EXPECT_EQ(stop.watch_kind, WatchKind::kRead);
  EXPECT_GE(stop.addr, xarr);
  EXPECT_LT(stop.addr, xarr + 8);
}

TEST(DebugHub, WatchpointAtFourCores) {
  HubFixture f("axpy", Variant::kBaseline, 4);
  const std::uint32_t yarr = f.cluster->program().symbol("yarr");
  f.hub->set_watchpoint(yarr, 8, WatchKind::kAccess);
  const Stop stop = f.hub->resume();
  EXPECT_EQ(stop.reason, Stop::Reason::kWatchpoint);
  EXPECT_TRUE(f.hub->clear_watchpoint(yarr, 8, WatchKind::kAccess));
  const Stop done = f.hub->resume();
  EXPECT_EQ(done.reason, Stop::Reason::kExited);
  EXPECT_NO_THROW(kernels::verify_outputs(*f.cluster, f.kernel));
}

TEST(DebugHub, MemoryAccessReadsProgramDataAndText) {
  HubFixture f("axpy", Variant::kCopift, 1);
  const std::uint32_t bp = f.cluster->program().symbol("body_begin");
  f.hub->set_breakpoint(bp);
  ASSERT_EQ(f.hub->resume().reason, Stop::Reason::kBreakpoint);
  // TCDM read/write round trip.
  const std::uint32_t xarr = f.cluster->program().symbol("xarr");
  const auto before = f.hub->read_mem(xarr, 16);
  ASSERT_EQ(before.size(), 16u);
  f.hub->write_mem(xarr, {1, 2, 3, 4});
  const auto after = f.hub->read_mem(xarr, 4);
  EXPECT_EQ(after, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  f.hub->write_mem(xarr, std::vector<std::uint8_t>(before.begin(), before.begin() + 4));
  // Text reads come from the program image (raw instruction encodings).
  const auto insn = f.hub->read_mem(bp, 4);
  const std::uint32_t word = static_cast<std::uint32_t>(insn[0]) | (insn[1] << 8) |
                             (insn[2] << 16) | (static_cast<std::uint32_t>(insn[3]) << 24);
  EXPECT_EQ(word, f.cluster->program().text_words[f.cluster->program().text_index(bp)]);
  // Unmapped addresses throw rather than fabricate bytes.
  EXPECT_THROW((void)f.hub->read_mem(0x4000'0000u, 4), SimError);
}

TEST(DebugHub, SymbolizeNamesTextAddresses) {
  HubFixture f("axpy", Variant::kCopift, 1);
  const rvasm::Program& prog = f.cluster->program();
  const std::uint32_t bp = prog.symbol("body_begin");
  EXPECT_EQ(prog.symbolize(bp), "body_begin");
  EXPECT_EQ(prog.symbolize(bp + 8), "body_begin+0x8");
  const auto near = prog.nearest_label(bp + 4);
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(near->name, "body_begin");
  EXPECT_EQ(near->offset, 4u);
  EXPECT_FALSE(prog.nearest_label(0x7fff'0000u).has_value());  // outside text
}

// An attached-but-idle hub must leave every registry workload bit-identical
// to a plain run: cycles, every stall column, energy and outputs.
TEST(DebugHub, IdleHubIsBitIdenticalAcrossRegistryWorkloads) {
  for (const auto& name : workload::WorkloadRegistry::instance().names()) {
    const auto wl = workload::WorkloadRegistry::instance().at(name);
    const WorkloadConfig cfg = wl->default_config();
    const auto variants = wl->variants();
    const Variant variant =
        std::find(variants.begin(), variants.end(), Variant::kCopift) != variants.end()
            ? Variant::kCopift
            : Variant::kBaseline;
    const auto kernel = wl->instantiate(variant, cfg);
    sim::SimParams params;
    params.num_cores = cfg.cores;
    const auto program =
        std::make_shared<const rvasm::Program>(rvasm::assemble(kernel.source));

    sim::Cluster plain(program, params);
    kernels::populate_inputs(plain, kernel);
    const auto plain_result = plain.run();

    sim::Cluster debugged(program, params);
    kernels::populate_inputs(debugged, kernel);
    DebugHub hub(debugged);
    const Stop stop = hub.resume();

    ASSERT_EQ(stop.reason, Stop::Reason::kExited) << name;
    EXPECT_EQ(debugged.cycles(), plain_result.cycles) << name;
    EXPECT_EQ(stop.exit_code, plain_result.exit_code) << name;
    // All stall columns: the full counter block must match bit-for-bit.
    EXPECT_EQ(std::memcmp(&debugged.counters(), &plain.counters(),
                          sizeof(sim::ActivityCounters)),
              0)
        << name;
    // Energy is a pure function of the counters, but assert it explicitly.
    const energy::EnergyModel model;
    EXPECT_EQ(model.evaluate(debugged.counters()).total_pj,
              model.evaluate(plain.counters()).total_pj)
        << name;
    EXPECT_NO_THROW(kernels::verify_outputs(debugged, kernel)) << name;
  }
}

// --- socket-level stub session -----------------------------------------------

/// Minimal blocking RSP client over a raw socket, reusing the codec.
class RspTestClient {
 public:
  explicit RspTestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw Error("rsp test client connect failed");
    }
  }
  ~RspTestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  std::string cmd(const std::string& payload) {
    const std::string framed = rsp::frame(payload);
    EXPECT_EQ(::send(fd_, framed.data(), framed.size(), 0),
              static_cast<ssize_t>(framed.size()));
    // Expect the stub's '+' ack, then its reply frame; ack the reply.
    while (true) {
      if (auto event = reader_.next()) {
        if (event->kind == rsp::PacketReader::Event::Kind::kPacket) {
          const char plus = '+';
          EXPECT_EQ(::send(fd_, &plus, 1, 0), 1);
          return event->payload;
        }
        continue;  // the ack (or a retransmit artifact)
      }
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) throw Error("stub closed the connection");
      reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  rsp::PacketReader reader_;
};

TEST(GdbStub, EndToEndSessionOverSocket) {
  HubFixture f("axpy", Variant::kCopift, 2);
  GdbStub stub(*f.cluster, StubOptions{0, false});
  const std::uint16_t port = stub.port();
  sim::RunResult result{};
  std::thread server([&] { result = stub.serve(); });

  {
    RspTestClient client(port);
    EXPECT_NE(client.cmd("qSupported:swbreak+").find("PacketSize"), std::string::npos);
    EXPECT_EQ(client.cmd("?").substr(0, 3), "T05");
    EXPECT_EQ(client.cmd("qfThreadInfo"), "m1,2");
    EXPECT_EQ(client.cmd("qsThreadInfo"), "l");

    const std::uint32_t bp = f.cluster->program().symbol("body_begin");
    char zpkt[32];
    std::snprintf(zpkt, sizeof(zpkt), "Z0,%x,4", bp);
    EXPECT_EQ(client.cmd(zpkt), "OK");

    // Both harts hit the breakpoint.
    std::set<std::string> threads;
    for (int i = 0; i < 8 && threads.size() < 2; ++i) {
      const std::string stop = client.cmd("c");
      ASSERT_EQ(stop.substr(0, 3), "T05");
      const auto pos = stop.find("thread:");
      ASSERT_NE(pos, std::string::npos);
      threads.insert(stop.substr(pos + 7, stop.find(';', pos) - pos - 7));
      EXPECT_NE(stop.find("swbreak"), std::string::npos);
    }
    EXPECT_EQ(threads, (std::set<std::string>{"1", "2"}));

    // Register block: 33 u32 + 32 u64 = 776 hex chars; PC slot holds bp.
    const std::string regs = client.cmd("g");
    ASSERT_EQ(regs.size(), 776u);
    EXPECT_EQ(rsp::parse_u32_le(std::string_view(regs).substr(32 * 8, 8)).value(), bp);
    // Single register reads (regnums are hex): p2 = sp, p20 = pc slot's
    // predecessor (a GPR), p21 = ft0, p40 = ft11 (the last FPR).
    EXPECT_NE(client.cmd("p2"), "00000000");
    EXPECT_EQ(client.cmd("pf").size(), 8u);    // a5
    EXPECT_EQ(client.cmd("p20").size(), 8u);   // regnum 0x20 = the PC
    EXPECT_EQ(client.cmd("p21").size(), 16u);  // regnum 0x21 = ft0
    EXPECT_EQ(client.cmd("p40").size(), 16u);  // regnum 0x40 = ft11

    // Memory: read the instruction at the breakpoint.
    char mpkt[32];
    std::snprintf(mpkt, sizeof(mpkt), "m%x,4", bp);
    EXPECT_EQ(client.cmd(mpkt).size(), 8u);

    // Monitor: stall attribution and symbolized where.
    const auto stalls = rsp::from_hex(client.cmd("qRcmd," + rsp::to_hex("stalls")));
    ASSERT_TRUE(stalls.has_value());
    EXPECT_NE(stalls->find("hart 0"), std::string::npos);
    const auto where = rsp::from_hex(client.cmd("qRcmd," + rsp::to_hex("where")));
    ASSERT_TRUE(where.has_value());
    EXPECT_NE(where->find("body_begin"), std::string::npos);

    // Step, clear, continue to exit.
    EXPECT_EQ(client.cmd("s").substr(0, 3), "T05");
    char zclr[32];
    std::snprintf(zclr, sizeof(zclr), "z0,%x,4", bp);
    EXPECT_EQ(client.cmd(zclr), "OK");
    EXPECT_EQ(client.cmd("c"), "W00");
  }

  server.join();
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(result.exit_code, 0u);
  EXPECT_NO_THROW(kernels::verify_outputs(*f.cluster, f.kernel));
}

TEST(GdbStub, DetachFreeRunsToCompletion) {
  HubFixture f("axpy", Variant::kCopift, 1);
  GdbStub stub(*f.cluster, StubOptions{0, false});
  sim::RunResult result{};
  std::thread server([&] { result = stub.serve(); });
  {
    RspTestClient client(stub.port());
    const std::uint32_t bp = f.cluster->program().symbol("body_begin");
    char zpkt[32];
    std::snprintf(zpkt, sizeof(zpkt), "Z0,%x,4", bp);
    EXPECT_EQ(client.cmd(zpkt), "OK");
    EXPECT_EQ(client.cmd("c").substr(0, 3), "T05");
    // Detach mid-run with the breakpoint still set: the stub must drop it
    // and free-run so the driver still gets its result.
    EXPECT_EQ(client.cmd("D"), "OK");
  }
  server.join();
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(result.exit_code, 0u);
  EXPECT_NO_THROW(kernels::verify_outputs(*f.cluster, f.kernel));
}

}  // namespace
}  // namespace copift::debug
