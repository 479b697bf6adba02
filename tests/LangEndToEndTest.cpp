//===- tests/LangEndToEndTest.cpp - compile-and-run pipeline tests --------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the atcc pipeline: ATC source -> generated C++ ->
/// host compiler -> executed binary -> verified output. These prove the
/// five-version translation computes correct results through the real
/// protocol hooks (GenRuntime), including the forced-need_task mode that
/// drives the check version's special-task transition.
///
//===----------------------------------------------------------------------===//

#include "lang/Compile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <sys/wait.h>

#ifndef ATC_SOURCE_DIR
#error "ATC_SOURCE_DIR must be defined by the build"
#endif

using namespace atc;
using namespace atc::lang;

namespace {

/// Compiles ATC source and builds it with the host compiler. Returns the
/// binary's path, or "" after failing the test on any pipeline error.
std::string buildBinary(const std::string &AtcSource) {
  CompileResult R = compileAtc(AtcSource);
  EXPECT_TRUE(R.Success) << (R.Errors.empty() ? "" : R.Errors[0]);
  if (!R.Success)
    return "";

  std::string Base =
      ::testing::TempDir() + "atcgen_" +
      std::to_string(reinterpret_cast<std::uintptr_t>(&R) ^
                     static_cast<std::uintptr_t>(::getpid()));
  std::string CppPath = Base + ".cpp";
  std::string BinPath = Base + ".bin";
  {
    std::ofstream Out(CppPath);
    Out << R.Cpp;
  }

  std::string Compile = "g++ -std=c++20 -O1 -I " ATC_SOURCE_DIR "/src " +
                        CppPath + " -o " + BinPath + " 2>&1";
  {
    std::FILE *P = ::popen(Compile.c_str(), "r");
    EXPECT_NE(P, nullptr);
    std::string CompilerOut;
    char Buf[512];
    while (std::fgets(Buf, sizeof(Buf), P))
      CompilerOut += Buf;
    int Status = ::pclose(P);
    EXPECT_EQ(Status, 0) << "host compile failed:\n" << CompilerOut;
    if (Status != 0)
      return "";
  }
  std::remove(CppPath.c_str());
  return BinPath;
}

/// Runs \p BinPath with \p Env prefixes and returns its captured stdout
/// (plus stderr when \p WithStderr); \p Status receives the wait status.
std::string runBinary(const std::string &BinPath, const std::string &Env,
                      int &Status, bool WithStderr = false) {
  std::string Run = Env + " " + BinPath + (WithStderr ? " 2>&1" : "");
  std::FILE *P = ::popen(Run.c_str(), "r");
  EXPECT_NE(P, nullptr);
  std::string Output;
  char Buf[512];
  while (std::fgets(Buf, sizeof(Buf), P))
    Output += Buf;
  Status = ::pclose(P);
  return Output;
}

/// Compiles ATC source, builds it with the host compiler, runs it with
/// \p Env prefixes, and returns captured stdout. Fails the test on any
/// pipeline error.
std::string compileAndRun(const std::string &AtcSource,
                          const std::string &Env = "") {
  std::string BinPath = buildBinary(AtcSource);
  if (BinPath.empty())
    return "";
  int Status = 0;
  std::string Output = runBinary(BinPath, Env, Status);
  EXPECT_EQ(Status, 0) << "generated binary failed";
  std::remove(BinPath.c_str());
  return Output;
}

const char *NQueensSrc = R"(
  int ok(int depth, char *x, int j) {
    for (int i = 0; i < depth; i = i + 1) {
      int d = x[i] - j;
      if (d == 0 || d == depth - i || d == i - depth) return 0;
    }
    return 1;
  }
  cilk int nqueens(int depth, int n, char *x)
  taskprivate: (*x) (n * sizeof(char));
  {
    long sn = 0;
    if (depth == n) return 1;
    for (int j = 0; j < n; j = j + 1) {
      if (ok(depth, x, j)) {
        x[depth] = j;
        sn += spawn nqueens(depth + 1, n, x);
      }
    }
    sync;
    return sn;
  }
  int main() {
    char board[16];
    print_long(nqueens(0, 8, board));
    return 0;
  }
)";

TEST(LangEndToEnd, NQueens8Counts92) {
  EXPECT_EQ(compileAndRun(NQueensSrc), "92\n");
}

TEST(LangEndToEnd, NQueensCorrectUnderForcedSpecialTasks) {
  // Force need_task on every 3rd poll: the check version repeatedly
  // creates special tasks and runs children through fast_2 with depth
  // reset — the result must not change.
  EXPECT_EQ(compileAndRun(NQueensSrc, "ATCGEN_FORCE_NEEDTASK=3"), "92\n");
}

TEST(LangEndToEnd, NQueensCorrectAcrossCutoffs) {
  for (int Cutoff : {0, 1, 5, 30}) {
    std::string Env = "ATCGEN_CUTOFF=" + std::to_string(Cutoff);
    EXPECT_EQ(compileAndRun(NQueensSrc, Env), "92\n") << Env;
  }
}

TEST(LangEndToEnd, NQueensCorrectWithDequeMirror) {
  // Every protocol operation runs on a real scheduler THE deque of
  // exactly the FSM's bound, with a popped-frame identity assert per pop;
  // an abort (overflow or protocol divergence) fails the exit-status
  // check inside compileAndRun.
  EXPECT_EQ(compileAndRun(NQueensSrc), "92\n");
}

TEST(LangEndToEnd, DequeMirrorComposesWithForcedSpecialTasks) {
  // Forced need_task drives pushSpecial/popSpecial through the deque,
  // whose array holds exactly the FSM's bound (Figure 2 as published:
  // 3C + 1), across cut-offs: a push past the end would abort.
  std::string BinPath = buildBinary(NQueensSrc);
  ASSERT_FALSE(BinPath.empty());
  for (int Cutoff : {0, 1, 3, 30}) {
    std::string Env = "ATCGEN_FORCE_NEEDTASK=3 ATCGEN_CUTOFF=" +
                      std::to_string(Cutoff);
    int Status = 0;
    EXPECT_EQ(runBinary(BinPath, Env, Status), "92\n") << Env;
    EXPECT_EQ(Status, 0) << Env;
  }
  std::remove(BinPath.c_str());
}

TEST(LangEndToEnd, BadDequeCapIsRejected) {
  // ATCGEN_TRACE_CAP takes a decimal integer in [1, INT_MAX]. A value
  // that would wrap, go negative, or is no number at all is a usage error
  // (exit 2), never a silently truncated or ignored capacity.
  std::string BinPath = buildBinary(NQueensSrc);
  ASSERT_FALSE(BinPath.empty());
  const std::string TracePath = ::testing::TempDir() + "atcgen_badcap.json";
  const std::string TraceEnv = "ATCGEN_TRACE='" + TracePath + "'";
  for (const char *Cap : {"4294967297", "99999999999999999999", "2147483648",
                          "abc", "0", "-4", "12x", " 8", ""}) {
    int Status = 0;
    std::string Out =
        runBinary(BinPath, TraceEnv + " ATCGEN_TRACE_CAP='" + Cap + "'",
                  Status, /*WithStderr=*/true);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 2)
        << "ATCGEN_TRACE_CAP '" << Cap << "' status " << Status;
    EXPECT_NE(Out.find("bad ATCGEN_TRACE_CAP"), std::string::npos)
        << "ATCGEN_TRACE_CAP '" << Cap << "': " << Out;
  }
  // The deque's size is the FSM's bound, not a setting: the removed
  // ATCGEN_DEQUE and ATCGEN_DEQUE_CAP are usage errors whatever their
  // value, never silently ignored.
  for (const char *Var : {"ATCGEN_DEQUE", "ATCGEN_DEQUE_CAP"})
    for (const char *Value : {"the", "64"}) {
      int Status = 0;
      std::string Out =
          runBinary(BinPath, std::string(Var) + "=" + Value, Status,
                    /*WithStderr=*/true);
      EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 2)
          << Var << "=" << Value << ": status " << Status;
      EXPECT_NE(Out.find(std::string("atcgen: ") + Var + " was removed"),
                std::string::npos)
          << Var << "=" << Value << ": " << Out;
    }
  std::remove(BinPath.c_str());
  std::remove(TracePath.c_str());
}

TEST(LangEndToEnd, FibComputesCorrectly) {
  const char *Src = R"(
    cilk long fib(int n) {
      long a = 0;
      long b = 0;
      if (n < 2) return n;
      a += spawn fib(n - 1);
      b += spawn fib(n - 2);
      sync;
      return a + b;
    }
    int main() { print_long(fib(20)); return 0; }
  )";
  EXPECT_EQ(compileAndRun(Src), "6765\n");
}

TEST(LangEndToEnd, StructWorkspaceProgram) {
  // A miniature Sudoku-flavoured program: a struct workspace passed as
  // taskprivate, mutated in place by fake tasks and copied for tasks.
  const char *Src = R"(
    struct Grid {
      int cells[4];
      int used;
    };
    int bit(int v) {
      int b = 1;
      for (int i = 0; i < v; i = i + 1)
        b = b * 2;
      return b;
    }
    cilk int fill(int pos, struct Grid *g)
    taskprivate: (*g) (sizeof(struct Grid));
    {
      long sn = 0;
      if (pos == 4) return 1;
      for (int v = 0; v < 4; v = v + 1) {
        if (!(g->used / bit(v) % 2)) {
          g->cells[pos] = v;
          g->used = g->used + bit(v);
          sn += spawn fill(pos + 1, g);
          g->used = g->used - bit(v);
        }
      }
      sync;
      return sn;
    }
    int main() {
      struct Grid g;
      g.used = 0;
      print_long(fill(0, &g));
      return 0;
    }
  )";
  // Permutations of 4 values: 4! = 24.
  EXPECT_EQ(compileAndRun(Src), "24\n");
  EXPECT_EQ(compileAndRun(Src, "ATCGEN_FORCE_NEEDTASK=2"), "24\n");
}

TEST(LangEndToEnd, AppendixASudokuProgramFromFile) {
  // The paper's Appendix A workload, 4x4 variant: an empty grid has
  // exactly 288 solutions.
  std::ifstream In(ATC_SOURCE_DIR "/examples/atc/sudoku4.atc");
  ASSERT_TRUE(In.good()) << "examples/atc/sudoku4.atc missing";
  std::string Src((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(compileAndRun(Src), "288\n");
  EXPECT_EQ(compileAndRun(Src, "ATCGEN_FORCE_NEEDTASK=4"), "288\n");
}

TEST(LangEndToEnd, ShippedExamplesCompile) {
  for (const char *Name : {"nqueens.atc", "fib.atc", "sudoku4.atc"}) {
    std::ifstream In(std::string(ATC_SOURCE_DIR "/examples/atc/") + Name);
    ASSERT_TRUE(In.good()) << Name;
    std::string Src((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
    CompileResult R = compileAtc(Src);
    EXPECT_TRUE(R.Success) << Name << ": "
                           << (R.Errors.empty() ? "" : R.Errors[0]);
  }
}

TEST(LangEndToEnd, WhileLoopsBreakContinue) {
  const char *Src = R"(
    int main() {
      long s = 0;
      int i = 0;
      while (1) {
        i = i + 1;
        if (i > 10) break;
        if (i % 2 == 0) continue;
        s = s + i;
      }
      for (int j = 0; j < 5; j = j + 1) {
        if (j == 2) continue;
        s = s + 100;
      }
      print_long(s);
      return 0;
    }
  )";
  // 1+3+5+7+9 = 25, plus 4 * 100 = 425.
  EXPECT_EQ(compileAndRun(Src), "425\n");
}

} // namespace
