//===- tests/SupportTest.cpp - support library unit tests -----------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Compiler.h"
#include "support/Options.h"
#include "support/Prng.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

using namespace atc;

TEST(Prng, LcgIsDeterministic) {
  Lcg A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Prng, LcgMatchesRecurrence) {
  // x1 = x0 * A + C (mod 2^64).
  std::uint64_t X0 = 7;
  Lcg G(X0);
  EXPECT_EQ(G.next(), X0 * Lcg::DefaultA + Lcg::DefaultC);
}

TEST(Prng, LcgBoundsRespected) {
  Lcg G(123);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(G.nextBelow(17), 17u);
}

TEST(Prng, LcgDoubleInUnitInterval) {
  Lcg G(99);
  for (int I = 0; I < 1000; ++I) {
    double D = G.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Prng, SplitMixProducesDistinctValues) {
  SplitMix64 G(1);
  std::set<std::uint64_t> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(G.next());
  EXPECT_EQ(Seen.size(), 1000u);
}

TEST(Prng, Mix64IsAPermutationSample) {
  // Distinct inputs must map to distinct outputs for a bijective mixer.
  std::set<std::uint64_t> Seen;
  for (std::uint64_t I = 0; I < 1000; ++I)
    Seen.insert(mix64(I));
  EXPECT_EQ(Seen.size(), 1000u);
}

TEST(Stats, MedianOdd) { EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0); }

TEST(Stats, MedianEven) { EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5); }

TEST(Stats, MedianSingle) { EXPECT_DOUBLE_EQ(median({7}), 7.0); }

TEST(Stats, Mean) { EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5); }

TEST(Stats, StddevOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(stddev({5, 5, 5}), 0.0);
}

TEST(Stats, StddevKnownValue) {
  // Sample stddev of {2, 4, 4, 4, 5, 5, 7, 9} is sqrt(32/7).
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, Geomean) { EXPECT_NEAR(geomean({1, 4}), 2.0, 1e-12); }

TEST(Table, AlignsColumns) {
  TextTable T;
  T.setHeader({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer", "22"});
  std::string Text = T.renderText();
  EXPECT_NE(Text.find("name    value"), std::string::npos);
  EXPECT_NE(Text.find("longer  22"), std::string::npos);
}

TEST(Table, CsvEscapesCommas) {
  TextTable T;
  T.setHeader({"a"});
  T.addRow({"x,y"});
  EXPECT_NE(T.renderCsv().find("\"x,y\""), std::string::npos);
}

TEST(Table, CsvEscapesQuotes) {
  TextTable T;
  T.addRow({"say \"hi\""});
  EXPECT_EQ(T.renderCsv(), "\"say \"\"hi\"\"\"\n");
}

TEST(Table, FmtDouble) { EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14"); }

TEST(Table, FmtInt) { EXPECT_EQ(TextTable::fmt(42LL), "42"); }

TEST(Options, ParsesAllKinds) {
  long long N = 0;
  double X = 0;
  std::string S;
  bool F = false;
  OptionSet Opts;
  Opts.addInt("n", &N, "int");
  Opts.addDouble("x", &X, "double");
  Opts.addString("s", &S, "string");
  Opts.addFlag("f", &F, "flag");
  const char *Argv[] = {"prog", "--n=5", "--x", "2.5", "--s=hello", "--f",
                        "pos1"};
  Opts.parse(7, Argv);
  EXPECT_EQ(N, 5);
  EXPECT_DOUBLE_EQ(X, 2.5);
  EXPECT_EQ(S, "hello");
  EXPECT_TRUE(F);
  ASSERT_EQ(Opts.positionalArgs().size(), 1u);
  EXPECT_EQ(Opts.positionalArgs()[0], "pos1");
}

TEST(Options, FlagAcceptsExplicitFalse) {
  bool F = true;
  OptionSet Opts;
  Opts.addFlag("f", &F, "flag");
  const char *Argv[] = {"prog", "--f=false"};
  Opts.parse(2, Argv);
  EXPECT_FALSE(F);
}

/// Parses "--workers=<Value>" against the range [1, 8].
static long long parseWorkers(const std::string &Value) {
  long long N = 4;
  OptionSet Opts;
  Opts.addInt("workers", &N, "worker count", 1, 8);
  const std::string Arg = "--workers=" + Value;
  const char *Argv[] = {"prog", Arg.c_str()};
  Opts.parse(2, Argv);
  return N;
}

TEST(Options, IntRangeAcceptsValuesInRange) {
  EXPECT_EQ(parseWorkers("1"), 1);
  EXPECT_EQ(parseWorkers("8"), 8);
}

TEST(Options, IntBelowRangeExitsWithBounds) {
  EXPECT_EXIT(parseWorkers("0"), ::testing::ExitedWithCode(2),
              "--workers expects an integer in \\[1, 8\\], got '0'");
  EXPECT_EXIT(parseWorkers("-5"), ::testing::ExitedWithCode(2), "'-5'");
}

TEST(Options, IntAboveRangeExitsWithBounds) {
  EXPECT_EXIT(parseWorkers("9"), ::testing::ExitedWithCode(2),
              "--workers expects an integer in \\[1, 8\\], got '9'");
}

TEST(Options, IntOverflowingIntOrLongLongExits) {
  // Past INT_MAX (never truncated into range), and past LLONG_MAX, where
  // strtoll saturates.
  for (const char *V : {"4294967297", "99999999999999999999",
                        "-99999999999999999999"})
    EXPECT_EXIT(parseWorkers(V), ::testing::ExitedWithCode(2),
                "\\[1, 8\\]")
        << V;
}

TEST(Options, UsageMentionsEveryOption) {
  long long N = 0;
  OptionSet Opts("demo");
  Opts.addInt("threads", &N, "worker count");
  std::string U = Opts.usage("prog");
  EXPECT_NE(U.find("--threads=N"), std::string::npos);
  EXPECT_NE(U.find("worker count"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Arena: slab allocation, recycling, overflow, remote frees
//===----------------------------------------------------------------------===//

TEST(SlabArena, CarvesAlignedDistinctChunks) {
  SlabArena A(24, 8);
  EXPECT_GE(A.chunkBytes(), 24u);
  EXPECT_EQ(A.chunkBytes() % ATC_CACHE_LINE_SIZE, 0u);
  std::set<void *> Seen;
  for (int I = 0; I < 8; ++I) {
    SlabArena::Alloc R = A.alloc();
    EXPECT_TRUE(R.Fresh);
    EXPECT_TRUE(A.fromSlab(R.Ptr));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(R.Ptr) %
                  ATC_CACHE_LINE_SIZE,
              0u);
    Seen.insert(R.Ptr);
  }
  EXPECT_EQ(Seen.size(), 8u);
  EXPECT_EQ(A.stats().SlabAllocs, 8u);
  EXPECT_EQ(A.stats().HeapAllocs, 0u);
}

TEST(SlabArena, FreeRecyclesLifoWithoutFreshFlag) {
  SlabArena A(16, 4);
  void *P = A.alloc().Ptr;
  A.free(P);
  SlabArena::Alloc R = A.alloc();
  EXPECT_EQ(R.Ptr, P);
  EXPECT_FALSE(R.Fresh);
}

TEST(SlabArena, OverflowFallsBackToHeapAndCountsFrees) {
  SlabArena A(16, 2);
  void *S0 = A.alloc().Ptr;
  void *S1 = A.alloc().Ptr;
  SlabArena::Alloc H = A.alloc(); // past the cap
  EXPECT_TRUE(H.Fresh);
  EXPECT_FALSE(A.fromSlab(H.Ptr));
  EXPECT_EQ(A.stats().HeapAllocs, 1u);
  A.free(H.Ptr);
  EXPECT_EQ(A.stats().OverflowFrees, 1u);
  A.free(S0);
  A.free(S1);
  EXPECT_EQ(A.stats().OverflowFrees, 1u); // slab frees are not overflows
}

TEST(SlabArena, HighWaterTracksPeakLiveChunks) {
  SlabArena A(16, 8);
  void *P0 = A.alloc().Ptr;
  void *P1 = A.alloc().Ptr;
  void *P2 = A.alloc().Ptr;
  EXPECT_EQ(A.stats().HighWater, 3);
  A.free(P2);
  A.free(P1);
  void *P3 = A.alloc().Ptr; // live back to 2: peak stays 3
  EXPECT_EQ(A.stats().HighWater, 3);
  A.free(P3);
  A.free(P0);
}

TEST(SlabArena, RemoteFreesAreDrainedOnFreelistMiss) {
  SlabArena A(32, 4);
  std::vector<void *> Chunks;
  for (int I = 0; I < 4; ++I)
    Chunks.push_back(A.alloc().Ptr);
  std::thread Thief([&] {
    for (void *P : Chunks)
      A.freeRemote(P);
  });
  Thief.join();
  // The slab is fully carved and the local freelist is empty, so the next
  // alloc must refill from the remote stack instead of hitting the heap.
  std::set<void *> Recycled;
  for (int I = 0; I < 4; ++I) {
    SlabArena::Alloc R = A.alloc();
    EXPECT_FALSE(R.Fresh);
    Recycled.insert(R.Ptr);
  }
  EXPECT_EQ(Recycled, std::set<void *>(Chunks.begin(), Chunks.end()));
  EXPECT_EQ(A.stats().HeapAllocs, 0u);
}

TEST(SlabArena, RemoteOverflowFreesAreCountedSeparately) {
  SlabArena A(16, 1);
  void *S = A.alloc().Ptr;
  void *H = A.alloc().Ptr; // heap fallback
  std::thread Thief([&] { A.freeRemote(H); });
  Thief.join();
  EXPECT_EQ(A.remoteOverflowFrees(), 1u);
  EXPECT_EQ(A.stats().OverflowFrees, 0u);
  A.free(S);
}

namespace {

/// Lifetime probe for ObjectArena: first member doubles as the freelist
/// link slot (per the arena contract), Gen survives recycling.
struct ArenaProbe {
  void *Link = nullptr; ///< First member: rewritten after every alloc.
  int Gen = 0;
  static int Ctors;
  static int Dtors;
  ArenaProbe() { ++Ctors; }
  ~ArenaProbe() { ++Dtors; }
};

int ArenaProbe::Ctors = 0;
int ArenaProbe::Dtors = 0;

} // namespace

TEST(ObjectArena, ConstructsOnceAndRecyclesWithoutDestruction) {
  ArenaProbe::Ctors = 0;
  ArenaProbe::Dtors = 0;
  {
    ObjectArena<ArenaProbe> A(4);
    ArenaProbe *P = A.alloc();
    EXPECT_EQ(ArenaProbe::Ctors, 1);
    P->Link = nullptr; // the contract: rewrite the first member
    P->Gen = 7;
    A.free(P);
    ArenaProbe *Q = A.alloc();
    EXPECT_EQ(Q, P);
    EXPECT_EQ(ArenaProbe::Ctors, 1); // recycled, not re-constructed
    EXPECT_EQ(Q->Gen, 7);            // non-link fields survive recycling
    EXPECT_EQ(ArenaProbe::Dtors, 0);
  }
  // Teardown destroys every carved chunk exactly once.
  EXPECT_EQ(ArenaProbe::Dtors, 1);
}

TEST(ObjectArena, HeapOverflowObjectsAreDestroyedEagerly) {
  ArenaProbe::Ctors = 0;
  ArenaProbe::Dtors = 0;
  {
    ObjectArena<ArenaProbe> A(1);
    ArenaProbe *S = A.alloc();
    ArenaProbe *H = A.alloc(); // heap fallback
    EXPECT_EQ(ArenaProbe::Ctors, 2);
    A.free(H);
    EXPECT_EQ(ArenaProbe::Dtors, 1); // overflow chunk destroyed at free
    EXPECT_EQ(A.stats().OverflowFrees, 1u);
    A.free(S);
    EXPECT_EQ(ArenaProbe::Dtors, 1); // slab chunk kept constructed
  }
  EXPECT_EQ(ArenaProbe::Dtors, 2);
}
