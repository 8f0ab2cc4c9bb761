// HTTP/1.1 client transport tests (ISSUE 10, src/client/http_client.h).
//
// The client is exercised against the real in-repo HttpServer on real
// loopback sockets — the same pairing production uses — so keep-alive
// reuse, stale-connection resend, and transport error mapping are tested
// end to end, not against mocks.
#include "src/client/http_client.h"

#include <atomic>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "prefillonly/client.h"
#include "src/server/http_server.h"

namespace prefillonly {
namespace {

HttpServer::Handler CountingEchoHandler(std::atomic<int>& hits) {
  return [&hits](const HttpRequest& request) {
    ++hits;
    HttpResponse response;
    response.body = "{\"path\":\"" + request.path + "\",\"len\":" +
                    std::to_string(request.body.size()) + "}";
    return response;
  };
}

TEST(HttpClientTest, ParseEndpointForms) {
  auto full = ParseEndpoint("10.0.0.8:8080");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().host, "10.0.0.8");
  EXPECT_EQ(full.value().port, 8080);

  // Host defaults to loopback for ":port" and bare-port forms.
  auto colon = ParseEndpoint(":9000");
  ASSERT_TRUE(colon.ok());
  EXPECT_EQ(colon.value().host, "127.0.0.1");
  EXPECT_EQ(colon.value().port, 9000);

  auto bare = ParseEndpoint("9000");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().host, "127.0.0.1");
  EXPECT_EQ(bare.value().port, 9000);

  for (const char* bad : {"", "host:", "host:0", "host:65536", "host:abc"}) {
    auto result = ParseEndpoint(bad);
    EXPECT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(HttpClientTest, KeepAliveReusesOneConnection) {
  std::atomic<int> hits{0};
  HttpServer server(CountingEchoHandler(hits));
  ASSERT_TRUE(server.Start(0).ok());

  HttpClientOptions options;
  options.port = server.port();
  HttpClient client(options);
  for (int i = 0; i < 8; ++i) {
    auto response = client.Post("/echo", "payload-" + std::to_string(i));
    ASSERT_TRUE(response.ok()) << response.status().message();
    EXPECT_EQ(response.value().status, 200);
    EXPECT_NE(response.value().body.find("\"len\":9"), std::string::npos);
  }
  EXPECT_EQ(hits.load(), 8);
  // The whole exchange rode ONE socket: that is the keep-alive contract.
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.reconnects(), 0);
  server.Stop();
}

TEST(HttpClientTest, StaleConnectionReconnectsAndResendsOnce) {
  std::atomic<int> hits{0};
  auto first = std::make_unique<HttpServer>(CountingEchoHandler(hits));
  ASSERT_TRUE(first->Start(0).ok());
  const uint16_t port = first->port();

  HttpClientOptions options;
  options.port = port;
  HttpClient client(options);
  ASSERT_TRUE(client.Get("/a").ok());
  EXPECT_EQ(client.reconnects(), 0);

  // Simulate a keep-alive peer restarting between requests: the pooled
  // socket is now stale (EOF before any response byte), which is the one
  // provably-safe resend case.
  first->Stop();
  first.reset();
  HttpServer second(CountingEchoHandler(hits));
  ASSERT_TRUE(second.Start(port).ok());

  auto response = client.Get("/b");
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(client.reconnects(), 1);
  EXPECT_EQ(hits.load(), 2);
  second.Stop();
}

TEST(HttpClientTest, ConnectionRefusedIsUnavailable) {
  // Grab a port the OS just proved free, then close the listener.
  uint16_t free_port = 0;
  {
    HttpServer probe([](const HttpRequest&) { return HttpResponse{}; });
    ASSERT_TRUE(probe.Start(0).ok());
    free_port = probe.port();
    probe.Stop();
  }
  HttpClientOptions options;
  options.port = free_port;
  HttpClient client(options);
  auto response = client.Get("/");
  ASSERT_FALSE(response.ok());
  // kUnavailable is the transient class the facade RetryPolicy retries.
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(client.connected());
}

TEST(HttpClientTest, HostileDeeplyNestedResponseIsInvalidArgument) {
  // Regression: the client parses server bodies with the same parser as
  // the server, which had no depth limit, so a hostile (or broken) server
  // answering with 100 000 '[' bytes crashed the calling process.
  HttpServer hostile([](const HttpRequest&) {
    HttpResponse response;
    response.body = std::string(100000, '[');
    return response;
  });
  ASSERT_TRUE(hostile.Start(0).ok());
  ClientOptions options;
  options.endpoint = "127.0.0.1:" + std::to_string(hostile.port());
  Client client(options);
  const ScoreResult result = client.Score({1, 2, 3}, {10, 20});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, "invalid_argument");
  EXPECT_NE(result.error_message.find("nesting"), std::string::npos);
  EXPECT_EQ(client.Stats().submitted, 0);  // unparseable stats read as zeros
  hostile.Stop();
}

TEST(HttpClientTest, InvalidHostIsInvalidArgument) {
  HttpClientOptions options;
  options.host = "not-an-ip";  // DNS is out of scope: IPv4 literals only
  options.port = 1;
  HttpClient client(options);
  auto response = client.Get("/");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace prefillonly
