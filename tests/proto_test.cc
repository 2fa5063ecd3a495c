// Tests for DNS-lite (resolution, forgery, DNSSEC-lite, quorum), TLS-lite
// (cert chains, validation failure modes, handshake, record MACs), HTTP-lite
// (codec, parser, server/client), and DHCP-lite (leases, PVN option).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string_view>

#include "fixtures.h"
#include "proto/dhcp.h"
#include "proto/dns.h"
#include "proto/http.h"
#include "proto/tls.h"

namespace pvn {
namespace {

using testing::DumbbellTopo;

LinkParams quick() {
  LinkParams lp;
  lp.rate = Rate::mbps(100);
  lp.latency = milliseconds(2);
  return lp;
}

// ---------------------------------------------------------------- DNS ------

struct DnsTopo {
  Network net;
  Host* client;
  Host* resolver1;
  Host* resolver2;
  Host* resolver3;
  Router* router;

  DnsTopo() {
    client = &net.add_node<Host>("client", Ipv4Addr(10, 0, 0, 2));
    resolver1 = &net.add_node<Host>("resolver1", Ipv4Addr(8, 8, 8, 8));
    resolver2 = &net.add_node<Host>("resolver2", Ipv4Addr(9, 9, 9, 9));
    resolver3 = &net.add_node<Host>("resolver3", Ipv4Addr(1, 1, 1, 1));
    router = &net.add_node<Router>("router");
    net.connect(*client, *router, quick());
    net.connect(*resolver1, *router, quick());
    net.connect(*resolver2, *router, quick());
    net.connect(*resolver3, *router, quick());
    router->add_route(*Prefix::parse("10.0.0.0/8"), 0);
    router->add_route(*Prefix::parse("8.0.0.0/8"), 1);
    router->add_route(*Prefix::parse("9.0.0.0/8"), 2);
    router->add_route(*Prefix::parse("1.0.0.0/8"), 3);
  }
};

TEST(DnsCodec, MessageRoundTrip) {
  DnsMessage m;
  m.id = 77;
  m.response = true;
  m.question = "example.com";
  DnsRecord rec;
  rec.name = "example.com";
  rec.addr = Ipv4Addr(93, 184, 216, 34);
  rec.ttl_seconds = 60;
  m.answers.push_back(rec);
  const auto back = DnsMessage::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(DnsCodec, SignedRecordRoundTrip) {
  KeyPair zone(42);
  DnsRecord rec;
  rec.name = "secure.example";
  rec.addr = Ipv4Addr(1, 2, 3, 4);
  rec.signed_record = true;
  rec.signature = zone.sign(rec.canonical_bytes());
  DnsMessage m;
  m.question = rec.name;
  m.answers.push_back(rec);
  const auto back = DnsMessage::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->answers.at(0).signature, rec.signature);
}

TEST(DnsCodec, DecodeRejectsTruncated) {
  DnsMessage m;
  m.question = "example.com";
  Bytes raw = m.encode();
  raw.resize(raw.size() - 3);
  EXPECT_FALSE(DnsMessage::decode(raw).has_value());
}

TEST(Dns, ResolvesKnownName) {
  DnsTopo topo;
  DnsServer server(*topo.resolver1);
  server.add_record("example.com", Ipv4Addr(93, 184, 216, 34));
  StubResolver stub(*topo.client, {topo.resolver1->addr()});
  DnsResult result;
  stub.resolve("example.com", [&](const DnsResult& r) { result = r; });
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kOk);
  EXPECT_EQ(result.addr, Ipv4Addr(93, 184, 216, 34));
  EXPECT_FALSE(result.authenticated);
  EXPECT_EQ(server.queries_served(), 1u);
}

TEST(Dns, UnknownNameIsNxDomain) {
  DnsTopo topo;
  DnsServer server(*topo.resolver1);
  StubResolver stub(*topo.client, {topo.resolver1->addr()});
  DnsResult result;
  stub.resolve("missing.example", [&](const DnsResult& r) { result = r; });
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kNxDomain);
}

TEST(Dns, UnreachableResolverTimesOut) {
  DnsTopo topo;
  // No DnsServer bound on resolver1.
  StubResolver stub(*topo.client, {topo.resolver1->addr()});
  DnsResult result;
  result.status = DnsResult::Status::kOk;
  stub.resolve("example.com", [&](const DnsResult& r) { result = r; });
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kTimeout);
}

TEST(Dns, ForgedAnswerAcceptedWithoutDefences) {
  // A lone malicious resolver wins when the client has no validation.
  DnsTopo topo;
  DnsServer evil(*topo.resolver1);
  evil.add_record("bank.example", Ipv4Addr(10, 9, 9, 9));
  evil.forge("bank.example", Ipv4Addr(66, 6, 6, 6));
  StubResolver stub(*topo.client, {topo.resolver1->addr()});
  DnsResult result;
  stub.resolve("bank.example", [&](const DnsResult& r) { result = r; });
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kOk);
  EXPECT_EQ(result.addr, Ipv4Addr(66, 6, 6, 6));  // the attack succeeded
}

TEST(Dns, QuorumOutvotesSingleForger) {
  DnsTopo topo;
  DnsServer evil(*topo.resolver1);
  DnsServer good2(*topo.resolver2);
  DnsServer good3(*topo.resolver3);
  const Ipv4Addr truth(93, 184, 216, 34);
  evil.forge("bank.example", Ipv4Addr(66, 6, 6, 6));
  evil.add_record("bank.example", truth);
  good2.add_record("bank.example", truth);
  good3.add_record("bank.example", truth);
  StubResolver stub(*topo.client, {topo.resolver1->addr(),
                                   topo.resolver2->addr(),
                                   topo.resolver3->addr()});
  DnsResult result;
  stub.resolve("bank.example", [&](const DnsResult& r) { result = r; },
               /*quorum=*/3);
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kOk);
  EXPECT_EQ(result.addr, truth);
}

TEST(Dns, SignedRecordAuthenticatesAgainstZoneKey) {
  DnsTopo topo;
  KeyPair zone(7);
  KeyRegistry trusted;
  trusted.trust(zone);
  DnsServer server(*topo.resolver1, &zone);
  server.add_record("secure.example", Ipv4Addr(5, 5, 5, 5));
  StubResolver stub(*topo.client, {topo.resolver1->addr()}, &trusted,
                    zone.public_key());
  DnsResult result;
  stub.resolve("secure.example", [&](const DnsResult& r) { result = r; });
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kOk);
  EXPECT_TRUE(result.authenticated);
  EXPECT_EQ(result.addr, Ipv4Addr(5, 5, 5, 5));
}

TEST(Dns, ForgedSignatureIsBogus) {
  DnsTopo topo;
  KeyPair zone(7), attacker(666);
  KeyRegistry trusted;
  trusted.trust(zone);
  // Attacker signs with its own key but claims to be the zone.
  DnsServer server(*topo.resolver1, &attacker);
  server.add_record("secure.example", Ipv4Addr(66, 6, 6, 6));
  StubResolver stub(*topo.client, {topo.resolver1->addr()}, &trusted,
                    zone.public_key());
  DnsResult result;
  stub.resolve("secure.example", [&](const DnsResult& r) { result = r; });
  topo.net.sim().run();
  EXPECT_EQ(result.status, DnsResult::Status::kBogus);
}

// ---------------------------------------------------------------- TLS ------

TEST(TlsCerts, ValidChainValidates) {
  CertificateAuthority root("RootCA", 1);
  auto intermediate = root.issue_intermediate("MidCA", 2, 0, seconds(1000));
  KeyPair server_key(3);
  const Certificate leaf = intermediate->issue(
      "example.com", server_key.public_key(), 0, seconds(1000));
  TrustStore trust;
  trust.trust_root(root);
  trust.add_intermediate(*intermediate);
  const CertChain chain{leaf, intermediate->self_certificate(),
                        root.self_certificate()};
  EXPECT_EQ(validate_chain(chain, trust, seconds(10), "example.com"),
            CertStatus::kOk);
}

TEST(TlsCerts, DetectsEveryFailureMode) {
  CertificateAuthority root("RootCA", 1);
  CertificateAuthority rogue("RogueCA", 99);
  KeyPair server_key(3);
  TrustStore trust;
  trust.trust_root(root);

  const Certificate good =
      root.issue("example.com", server_key.public_key(), 0, seconds(1000));
  const CertChain good_chain{good, root.self_certificate()};

  // Expired.
  EXPECT_EQ(validate_chain(good_chain, trust, seconds(2000), "example.com"),
            CertStatus::kExpired);
  // Not yet valid.
  const Certificate future = root.issue("example.com", server_key.public_key(),
                                        seconds(500), seconds(1000));
  EXPECT_EQ(validate_chain({future, root.self_certificate()}, trust,
                           seconds(10), "example.com"),
            CertStatus::kNotYetValid);
  // Name mismatch.
  EXPECT_EQ(validate_chain(good_chain, trust, seconds(10), "evil.com"),
            CertStatus::kNameMismatch);
  // Untrusted root (rogue CA).
  const Certificate rogue_leaf =
      rogue.issue("example.com", server_key.public_key(), 0, seconds(1000));
  EXPECT_EQ(validate_chain({rogue_leaf, rogue.self_certificate()}, trust,
                           seconds(10), "example.com"),
            CertStatus::kUntrustedRoot);
  // Bad signature (tampered subject key after signing).
  Certificate tampered = good;
  tampered.subject_key.id ^= 1;
  EXPECT_EQ(validate_chain({tampered, root.self_certificate()}, trust,
                           seconds(10), "example.com"),
            CertStatus::kBadSignature);
  // Revoked.
  TrustStore crl = trust;
  crl.keys.trust(root.key());
  crl.trusted_roots.insert(root.key().public_key().id);
  crl.revoked_serials.insert(good.serial);
  EXPECT_EQ(validate_chain(good_chain, crl, seconds(10), "example.com"),
            CertStatus::kRevoked);
  // Empty chain.
  EXPECT_EQ(validate_chain({}, trust, seconds(10), "example.com"),
            CertStatus::kEmptyChain);
}

TEST(TlsCerts, ChainCodecRoundTrip) {
  CertificateAuthority root("RootCA", 1);
  KeyPair k(2);
  const Certificate leaf = root.issue("x.com", k.public_key(), 0, seconds(99));
  const CertChain chain{leaf, root.self_certificate()};
  const auto back = decode_chain(encode_chain(chain));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, chain);
}

TEST(TlsRecords, SealOpenRoundTripAndTamperDetection) {
  const Digest key = digest_of("session");
  const Bytes plain = to_bytes("secret payload");
  Bytes sealed = seal_app_data(key, plain);
  EXPECT_EQ(open_app_data(key, sealed), plain);
  sealed[5] ^= 0xFF;
  EXPECT_FALSE(open_app_data(key, sealed).has_value());
  EXPECT_FALSE(open_app_data(digest_of("wrong"), seal_app_data(key, plain))
                   .has_value());
}

struct TlsTopo {
  DumbbellTopo topo{LinkParams{Rate::mbps(100), milliseconds(5), 0.0,
                               1 * kMiB},
                    LinkParams{Rate::mbps(100), milliseconds(5), 0.0,
                               1 * kMiB}};
  CertificateAuthority root{"RootCA", 1};
  KeyPair server_key{2};
  TrustStore trust;
  std::unique_ptr<TlsServer> tls_server;

  TlsTopo(const std::string& cert_name = "example.com") {
    trust.trust_root(root);
    const Certificate leaf = root.issue(cert_name, server_key.public_key(), 0,
                                        seconds(3600));
    const CertChain chain{leaf, root.self_certificate()};
    topo.server->tcp_listen(443, [this, chain](TcpConnection& conn) {
      tls_server = std::make_unique<TlsServer>(conn, chain, server_key);
      tls_server->set_on_data([this](const Bytes& data) {
        server_received.insert(server_received.end(), data.begin(), data.end());
        tls_server->send(to_bytes("echo:" + to_string(data)));
      });
    });
  }

  Bytes server_received;
};

TEST(Tls, StrictClientCompletesHandshakeAndExchangesData) {
  TlsTopo t;
  TcpConnection& conn = t.topo.client->tcp_connect(t.topo.server->addr(), 443);
  TlsClient client(conn, "example.com", &t.trust, TlsClientPolicy::kStrict, 9);
  std::string got;
  client.set_on_connected([&](const TlsSessionInfo& info) {
    EXPECT_EQ(info.cert_status, CertStatus::kOk);
    client.send(to_bytes("hello"));
  });
  client.set_on_data([&](const Bytes& data) { got = to_string(data); });
  t.topo.net.sim().run();
  EXPECT_TRUE(client.info().established);
  EXPECT_EQ(to_string(t.server_received), "hello");
  EXPECT_EQ(got, "echo:hello");
  EXPECT_FALSE(client.saw_bad_mac());
}

TEST(Tls, StrictClientRejectsWrongName) {
  TlsTopo t("not-example.com");
  TcpConnection& conn = t.topo.client->tcp_connect(t.topo.server->addr(), 443);
  TlsClient client(conn, "example.com", &t.trust, TlsClientPolicy::kStrict, 9);
  CertStatus seen = CertStatus::kOk;
  client.set_on_connected(
      [&](const TlsSessionInfo& info) { seen = info.cert_status; });
  t.topo.net.sim().run();
  EXPECT_EQ(seen, CertStatus::kNameMismatch);
  EXPECT_FALSE(client.info().established);
}

TEST(Tls, BrokenClientAcceptsUntrustedCert) {
  // Models the [23] population: no validation at all.
  TlsTopo t;
  CertificateAuthority rogue("Rogue", 66);
  KeyPair mitm_key(67);
  const Certificate forged =
      rogue.issue("example.com", mitm_key.public_key(), 0, seconds(3600));
  // Re-point the server at a forged chain.
  t.topo.server->tcp_unlisten(443);
  std::unique_ptr<TlsServer> mitm_server;
  t.topo.server->tcp_listen(443, [&](TcpConnection& conn) {
    mitm_server = std::make_unique<TlsServer>(
        conn, CertChain{forged, rogue.self_certificate()}, mitm_key);
  });
  TcpConnection& conn = t.topo.client->tcp_connect(t.topo.server->addr(), 443);
  TlsClient naive(conn, "example.com", nullptr, TlsClientPolicy::kNone, 9);
  t.topo.net.sim().run();
  EXPECT_TRUE(naive.info().established);  // interception succeeded

  // The same forged chain fails strict validation.
  EXPECT_EQ(validate_chain(naive.info().server_chain, t.trust, seconds(1),
                           "example.com"),
            CertStatus::kUntrustedRoot);
}

// ---------------------------------------------------------------- HTTP -----

TEST(HttpCodec, RequestRoundTripThroughParser) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/submit";
  req.set_header("Host", "example.com");
  req.set_header("X-Device-Id", "abc123");
  req.body = to_bytes("k=v&user=bob");

  HttpRequest parsed;
  bool got = false;
  HttpParser parser(HttpParser::Kind::kRequest,
                    [&](HttpRequest r) {
                      parsed = std::move(r);
                      got = true;
                    },
                    nullptr);
  parser.feed(req.serialize());
  ASSERT_TRUE(got);
  EXPECT_EQ(parsed.method, "POST");
  EXPECT_EQ(parsed.path, "/submit");
  EXPECT_EQ(*parsed.header("Host"), "example.com");
  EXPECT_EQ(*parsed.header("X-Device-Id"), "abc123");
  EXPECT_EQ(parsed.body, req.body);
  EXPECT_FALSE(parser.error());
}

TEST(HttpCodec, ResponseParsesAcrossChunkBoundaries) {
  HttpResponse resp;
  resp.status = 404;
  resp.reason = "Not Found";
  resp.body = to_bytes("nothing here");
  const Bytes wire = resp.serialize();

  HttpResponse parsed;
  int count = 0;
  HttpParser parser(HttpParser::Kind::kResponse, nullptr, [&](HttpResponse r) {
    parsed = std::move(r);
    ++count;
  });
  // Feed byte by byte.
  for (std::uint8_t b : wire) parser.feed(Bytes{b});
  EXPECT_EQ(count, 1);
  EXPECT_EQ(parsed.status, 404);
  EXPECT_EQ(to_string(parsed.body), "nothing here");
}

TEST(HttpCodec, PipelinedMessages) {
  HttpRequest a, b;
  a.path = "/first";
  b.path = "/second";
  Bytes wire = a.serialize();
  const Bytes second = b.serialize();
  wire.insert(wire.end(), second.begin(), second.end());
  std::vector<std::string> paths;
  HttpParser parser(HttpParser::Kind::kRequest,
                    [&](HttpRequest r) { paths.push_back(r.path); }, nullptr);
  parser.feed(wire);
  EXPECT_EQ(paths, (std::vector<std::string>{"/first", "/second"}));
}

TEST(HttpCodec, MalformedHeaderSetsError) {
  HttpParser parser(HttpParser::Kind::kRequest, nullptr, nullptr);
  parser.feed(to_bytes("GET / HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n"));
  EXPECT_TRUE(parser.error());
}

TEST(HttpCodec, OutOfRangeOrSignedContentLengthSetsError) {
  const std::string too_big = std::to_string(HttpParser::kMaxContentLength + 1);
  for (const std::string& value : {std::string("18446744073709551615"),
                                   std::string("9223372036854775808"),
                                   std::string("+5"), std::string(" 5"),
                                   too_big}) {
    int emitted = 0;
    HttpParser resp_parser(HttpParser::Kind::kResponse, nullptr,
                           [&](HttpResponse) { ++emitted; });
    resp_parser.feed(to_bytes("HTTP/1.1 200 OK\r\nContent-Length: " + value +
                              "\r\n\r\nhello"));
    EXPECT_TRUE(resp_parser.error()) << value;

    HttpParser req_parser(HttpParser::Kind::kRequest,
                          [&](HttpRequest) { ++emitted; }, nullptr);
    req_parser.feed(to_bytes("POST / HTTP/1.1\r\nContent-Length: " + value +
                             "\r\n\r\nhello"));
    EXPECT_TRUE(req_parser.error()) << value;
    // A latched error swallows whatever follows.
    req_parser.feed(to_bytes("GET / HTTP/1.1\r\n\r\n"));
    EXPECT_EQ(emitted, 0) << value;
  }
}

TEST(HttpCodec, ContentLengthAtLimitIsAccepted) {
  HttpParser parser(HttpParser::Kind::kResponse, nullptr, nullptr);
  parser.feed(to_bytes("HTTP/1.1 200 OK\r\nContent-Length: " +
                       std::to_string(HttpParser::kMaxContentLength) +
                       "\r\n\r\nhello"));
  EXPECT_FALSE(parser.error());
}

TEST(HttpCodec, UnterminatedHeadPastTheBoundSetsError) {
  int emitted = 0;
  HttpParser parser(HttpParser::Kind::kRequest,
                    [&](HttpRequest) { ++emitted; }, nullptr);
  parser.feed(to_bytes("GET / HTTP/1.1\r\n"));
  // 1 MiB of header bytes in 4 KiB chunks, never a blank line.
  const Bytes chunk = to_bytes("X-Pad: " + std::string(4096 - 9, 'x') + "\r\n");
  for (int i = 0; i < 256; ++i) parser.feed(chunk);
  EXPECT_TRUE(parser.error());
  parser.feed(to_bytes("\r\n"));
  EXPECT_EQ(emitted, 0);
}

TEST(HttpCodec, HeadOfExactlyTheBoundParses) {
  const std::string start = "GET /exact HTTP/1.1\r\nX-Pad: ";
  const std::string end = "\r\n\r\n";
  const std::string pad(HttpParser::kMaxHeadBytes - start.size() - end.size(),
                        'p');
  const Bytes wire = to_bytes(start + pad + end);
  ASSERT_EQ(wire.size(), HttpParser::kMaxHeadBytes);
  for (const std::size_t cut : {std::size_t{0}, wire.size() / 2,
                                wire.size() - 1}) {
    std::vector<std::string> paths;
    HttpParser parser(HttpParser::Kind::kRequest,
                      [&](HttpRequest r) { paths.push_back(r.path); },
                      nullptr);
    parser.feed(Bytes(wire.begin(), wire.begin() + cut));
    parser.feed(Bytes(wire.begin() + cut, wire.end()));
    EXPECT_FALSE(parser.error()) << cut;
    EXPECT_EQ(paths, (std::vector<std::string>{"/exact"})) << cut;
  }
  // One byte more is over the bound.
  HttpParser over(HttpParser::Kind::kRequest, nullptr, nullptr);
  over.feed(to_bytes(start + pad + "p" + end));
  EXPECT_TRUE(over.error());
}

// Re-serializing a parsed message reproduces its wire form exactly (the
// parsed headers carry Content-Length, so serialize() adds nothing), which
// makes the wire bytes a complete fingerprint of what the parser emitted.
std::vector<Bytes> parse_in_pieces(HttpParser::Kind kind, const Bytes& wire,
                                   std::vector<std::size_t> cuts) {
  std::vector<Bytes> emitted;
  HttpParser parser(
      kind, [&](HttpRequest r) { emitted.push_back(r.serialize()); },
      [&](HttpResponse r) { emitted.push_back(r.serialize()); });
  cuts.push_back(wire.size());
  std::sort(cuts.begin(), cuts.end());
  std::size_t from = 0;
  for (const std::size_t cut : cuts) {
    parser.feed(Bytes(wire.begin() + static_cast<std::ptrdiff_t>(from),
                      wire.begin() + static_cast<std::ptrdiff_t>(cut)));
    from = cut;
  }
  EXPECT_FALSE(parser.error());
  return emitted;
}

// Offsets in a pipelined stream where a cut is most likely to trip a parser:
// around every CRLF of each head (so inside each header line ending and
// inside "\r\n\r\n"), at the start of each body, and between messages.
std::vector<std::size_t> framing_boundaries(const std::vector<Bytes>& msgs) {
  std::vector<std::size_t> cuts;
  std::size_t off = 0;
  for (const Bytes& m : msgs) {
    const std::string_view text(reinterpret_cast<const char*>(m.data()),
                                m.size());
    const std::size_t body_start = text.find("\r\n\r\n") + 4;
    for (std::size_t i = 0; i + 1 < body_start; ++i) {
      if (text[i] == '\r' && text[i + 1] == '\n') {
        for (std::size_t k = 0; k < 3; ++k) cuts.push_back(off + i + k);
      }
    }
    cuts.push_back(off + body_start);
    off += m.size();
    cuts.push_back(off);
  }
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  cuts.pop_back();  // the end of the stream
  return cuts;
}

void expect_split_invariant(HttpParser::Kind kind,
                            const std::vector<Bytes>& msgs) {
  Bytes wire;
  for (const Bytes& m : msgs) wire.insert(wire.end(), m.begin(), m.end());

  // Whole.
  ASSERT_EQ(parse_in_pieces(kind, wire, {}), msgs);

  // One byte at a time.
  std::vector<std::size_t> every_byte;
  for (std::size_t i = 1; i < wire.size(); ++i) every_byte.push_back(i);
  EXPECT_EQ(parse_in_pieces(kind, wire, every_byte), msgs);

  // Seeded random cut points, from tiny pieces to several TCP segments.
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> step(1, seed % 2 ? 9 : 4000);
    std::vector<std::size_t> cuts;
    for (std::size_t at = step(rng); at < wire.size(); at += step(rng)) {
      cuts.push_back(at);
    }
    EXPECT_EQ(parse_in_pieces(kind, wire, cuts), msgs) << "seed " << seed;
  }

  // Exactly at each framing boundary: all at once, then one at a time.
  const std::vector<std::size_t> bounds = framing_boundaries(msgs);
  EXPECT_EQ(parse_in_pieces(kind, wire, bounds), msgs);
  for (const std::size_t cut : bounds) {
    EXPECT_EQ(parse_in_pieces(kind, wire, {cut}), msgs) << "cut at " << cut;
  }
}

std::vector<Bytes> split_test_bodies() {
  Bytes large(300000);
  std::mt19937 rng(42);
  for (std::uint8_t& b : large) b = static_cast<std::uint8_t>(rng());
  return {Bytes{}, to_bytes("x"), to_bytes("a\r\n\r\nb\r\n\r\n"),
          std::move(large)};
}

TEST(HttpCodec, RequestParsingIsSplitInvariant) {
  std::vector<Bytes> msgs;
  int i = 0;
  for (Bytes& body : split_test_bodies()) {
    HttpRequest req;
    req.method = body.empty() ? "GET" : "POST";
    req.path = "/upload/" + std::to_string(i++);
    req.set_header("Host", "example.com");
    req.set_header("X-Device-Id", "dev-" + std::to_string(i));
    req.body = std::move(body);
    msgs.push_back(req.serialize());
  }
  expect_split_invariant(HttpParser::Kind::kRequest, msgs);
}

TEST(HttpCodec, ResponseParsingIsSplitInvariant) {
  std::vector<Bytes> msgs;
  int status = 200;
  for (Bytes& body : split_test_bodies()) {
    HttpResponse resp;
    resp.status = status++;
    resp.reason = "Reason Phrase";
    resp.set_header("Content-Type", "application/octet-stream");
    resp.body = std::move(body);
    msgs.push_back(resp.serialize());
  }
  expect_split_invariant(HttpParser::Kind::kResponse, msgs);
}

TEST(HttpCodec, BytesBodyIsPeriodicFiller) {
  for (const std::size_t n : {0, 1, 22, 23, 24, 46, 4097, 512000}) {
    HttpRequest req;
    req.path = "/bytes/" + std::to_string(n);
    const Bytes body = synthesize_response(req).body;
    ASSERT_EQ(body.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(body[i], static_cast<std::uint8_t>('a' + i % 23)) << "N=" << n << " i=" << i;
    }
  }
}

TEST(HttpCodec, PeriodicBytesMatchesModuloFill) {
  for (const std::size_t n : {0, 1, 16, 17, 18, 35, 4097, 250000}) {
    const Bytes fill = periodic_bytes(n, 'v', 17);
    ASSERT_EQ(fill.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(fill[i], static_cast<std::uint8_t>('v' + i % 17)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Http, EndToEndFetch) {
  DumbbellTopo topo(quick(), quick());
  HttpServer server(*topo.server);
  HttpClient client(*topo.client);
  FetchTiming timing;
  HttpResponse response;
  client.fetch(topo.server->addr(), 80, "/bytes/50000",
               [&](const HttpResponse& r, const FetchTiming& t) {
                 response = r;
                 timing = t;
               });
  topo.net.sim().run();
  EXPECT_TRUE(timing.ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.size(), 50000u);
  EXPECT_GT(timing.total(), 0);
  EXPECT_LE(timing.ttfb(), timing.total());
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(Http, LargerDownloadsTakeLonger) {
  DumbbellTopo topo(quick(), quick());
  HttpServer server(*topo.server);
  HttpClient client(*topo.client);
  SimDuration small_time = 0, large_time = 0;
  client.fetch(topo.server->addr(), 80, "/bytes/1000",
               [&](const HttpResponse&, const FetchTiming& t) {
                 small_time = t.total();
               });
  topo.net.sim().run();
  client.fetch(topo.server->addr(), 80, "/bytes/2000000",
               [&](const HttpResponse&, const FetchTiming& t) {
                 large_time = t.total();
               });
  topo.net.sim().run();
  EXPECT_GT(large_time, small_time);
}

TEST(Http, BadBytesSizeAnswersAnErrorStatus) {
  DumbbellTopo topo(quick(), quick());
  HttpServer server(*topo.server);
  HttpClient client(*topo.client);
  const std::vector<std::string> paths = {
      "/bytes/-1", "/bytes/abc", "/bytes/67108865",
      "/bytes/99999999999999999999"};
  std::vector<int> statuses;
  std::vector<bool> oks;
  for (const std::string& path : paths) {
    client.fetch(topo.server->addr(), 80, path,
                 [&](const HttpResponse& r, const FetchTiming& t) {
                   statuses.push_back(r.status);
                   oks.push_back(t.ok);
                 });
  }
  EXPECT_NO_THROW(topo.net.sim().run());
  EXPECT_EQ(statuses, (std::vector<int>{400, 400, 400, 400}));
  EXPECT_EQ(oks, (std::vector<bool>{false, false, false, false}));
  EXPECT_EQ(server.requests_served(), paths.size());
}

TEST(Http, FetchFromDeadServerFails) {
  DumbbellTopo topo(quick(), quick());
  HttpClient client(*topo.client);
  bool called = false;
  FetchTiming timing;
  client.fetch(topo.server->addr(), 80, "/",
               [&](const HttpResponse&, const FetchTiming& t) {
                 called = true;
                 timing = t;
               });
  topo.net.sim().run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(timing.ok);
}

// ---------------------------------------------------------------- DHCP -----

TEST(DhcpCodec, MessageRoundTrip) {
  DhcpMessage m;
  m.type = DhcpType::kOffer;
  m.xid = 99;
  m.client_id = 0xABCDEF;
  m.offered = Ipv4Addr(10, 0, 0, 50);
  m.options[kDhcpOptPvnStandards] = to_bytes("openflow-lite,mbox-v1");
  const auto back = DhcpMessage::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, DhcpType::kOffer);
  EXPECT_EQ(back->offered, m.offered);
  EXPECT_EQ(to_string(back->options.at(kDhcpOptPvnStandards)),
            "openflow-lite,mbox-v1");
}

TEST(Dhcp, LeaseAssignsAddressAndUpdatesHost) {
  DumbbellTopo topo(quick(), quick());
  DhcpServer server(*topo.server, Ipv4Addr(10, 0, 0, 100), 10);
  DhcpClient client(*topo.client);
  DhcpLease lease;
  client.acquire(topo.server->addr(), [&](const DhcpLease& l) { lease = l; });
  topo.net.sim().run();
  EXPECT_TRUE(lease.ok);
  EXPECT_EQ(lease.addr, Ipv4Addr(10, 0, 0, 100));
  EXPECT_EQ(topo.client->addr(), lease.addr);
  EXPECT_FALSE(lease.pvn_supported);
  EXPECT_EQ(server.leases_granted(), 1u);
}

TEST(Dhcp, PvnOptionAdvertised) {
  DumbbellTopo topo(quick(), quick());
  DhcpServer server(*topo.server, Ipv4Addr(10, 0, 0, 100), 10);
  server.advertise_pvn(Ipv4Addr(10, 0, 0, 5), "openflow-lite,mbox-v1");
  DhcpClient client(*topo.client);
  DhcpLease lease;
  client.acquire(topo.server->addr(), [&](const DhcpLease& l) { lease = l; });
  topo.net.sim().run();
  ASSERT_TRUE(lease.ok);
  EXPECT_TRUE(lease.pvn_supported);
  EXPECT_EQ(lease.pvn_server, Ipv4Addr(10, 0, 0, 5));
  EXPECT_EQ(lease.pvn_standards, "openflow-lite,mbox-v1");
}

TEST(Dhcp, TimeoutWhenServerSilent) {
  DumbbellTopo topo(quick(), quick());
  DhcpClient client(*topo.client);
  DhcpLease lease;
  lease.ok = true;
  client.acquire(topo.server->addr(), [&](const DhcpLease& l) { lease = l; });
  topo.net.sim().run();
  EXPECT_FALSE(lease.ok);
}

TEST(Dhcp, SameClientGetsStableLease) {
  DumbbellTopo topo(quick(), quick());
  DhcpServer server(*topo.server, Ipv4Addr(10, 0, 0, 100), 10);
  DhcpClient client(*topo.client);
  Ipv4Addr first, second;
  client.acquire(topo.server->addr(),
                 [&](const DhcpLease& l) { first = l.addr; });
  topo.net.sim().run();
  client.acquire(topo.server->addr(),
                 [&](const DhcpLease& l) { second = l.addr; });
  topo.net.sim().run();
  EXPECT_EQ(first, second);
}

// Framing property: arbitrary chunkings reassemble identically.
class FramerProperty : public ::testing::TestWithParam<int> {};

TEST_P(FramerProperty, ReassemblesUnderChunking) {
  const int chunk_size = GetParam();
  std::vector<Bytes> frames_in = {to_bytes("alpha"), to_bytes(""),
                                  to_bytes(std::string(1000, 'x')),
                                  to_bytes("omega")};
  Bytes wire;
  for (const Bytes& f : frames_in) {
    const Bytes framed = StreamFramer::frame(f);
    wire.insert(wire.end(), framed.begin(), framed.end());
  }
  std::vector<Bytes> frames_out;
  StreamFramer framer([&](Bytes f) { frames_out.push_back(std::move(f)); });
  for (std::size_t i = 0; i < wire.size(); i += chunk_size) {
    const std::size_t n = std::min<std::size_t>(chunk_size, wire.size() - i);
    framer.feed(Bytes(wire.begin() + i, wire.begin() + i + n));
  }
  EXPECT_EQ(frames_out, frames_in);
  EXPECT_EQ(framer.buffered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Chunkings, FramerProperty,
                         ::testing::Values(1, 2, 3, 7, 64, 1024, 100000));

}  // namespace
}  // namespace pvn
