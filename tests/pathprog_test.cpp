//===- tests/pathprog_test.cpp - Path-program construction tests ----------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "lang/Lower.h"
#include "pathprog/PathProgram.h"
#include "program/CutSet.h"
#include "smt/SolverContext.h"

#include <gtest/gtest.h>

using namespace pathinv;

namespace {

/// Builds the worked example of Section 3: locations l0 l1 l2 lE with
/// rho0: l0->l1, rho1: l1->l2, rho2: l2->l1, rho3: l1->l0, rho4: l0->lE.
/// The relations are arbitrary distinct assumes (structure is what counts).
struct Section3Example {
  TermManager TM;
  std::unique_ptr<Program> P;
  LocId L0, L1, L2, LE;
  int Rho[5];

  Section3Example() {
    const Term *X = TM.mkVar("x", Sort::Int);
    P = std::make_unique<Program>(TM, std::vector<const Term *>{X});
    L0 = P->addLocation("l0");
    L1 = P->addLocation("l1");
    L2 = P->addLocation("l2");
    LE = P->addLocation("lE");
    P->setEntry(L0);
    P->setError(LE);
    auto Guard = [&](int K) {
      return P->mkAssume(TM.mkLe(TM.mkIntConst(K), X));
    };
    Rho[0] = P->addTransition(L0, Guard(0), L1, "rho0");
    Rho[1] = P->addTransition(L1, Guard(1), L2, "rho1");
    Rho[2] = P->addTransition(L2, Guard(2), L1, "rho2");
    Rho[3] = P->addTransition(L1, Guard(3), L0, "rho3");
    Rho[4] = P->addTransition(L0, Guard(4), LE, "rho4");
  }

  Path errorPath() const {
    return {Rho[0], Rho[1], Rho[2], Rho[3], Rho[0], Rho[3], Rho[4]};
  }
};

TEST(PathBlocksTest, Section3NestedBlocks) {
  Section3Example Ex;
  std::vector<PathBlock> Blocks =
      computePathBlocks(*Ex.P, Ex.errorPath());
  ASSERT_EQ(Blocks.size(), 2u);
  // Sorted outermost first: B1 = {l0, l1, l2} with header l0.
  EXPECT_EQ(Blocks[0].Header, Ex.L0);
  EXPECT_EQ(Blocks[0].Members,
            (std::set<LocId>{Ex.L0, Ex.L1, Ex.L2}));
  // B2 = {l1, l2} with header l1.
  EXPECT_EQ(Blocks[1].Header, Ex.L1);
  EXPECT_EQ(Blocks[1].Members, (std::set<LocId>{Ex.L1, Ex.L2}));
}

/// Renders a path-program transition as "from -> to : label" using the
/// (origLoc, position, hat) naming of the paper.
std::string describe(const PathProgram &PP, const Transition &T) {
  auto name = [&](LocId L) {
    const PathLocInfo &Info = PP.LocInfo[L];
    std::string Result = Info.IsHat ? "^" : "";
    Result += "l" + std::to_string(Info.OrigLoc) + "," +
              std::to_string(Info.Position);
    return Result;
  };
  return name(T.From) + " -> " + name(T.To) + " : " + T.Label;
}

TEST(PathProgramTest, Section3TransitionSet) {
  Section3Example Ex;
  PathProgram PP = buildPathProgram(*Ex.P, Ex.errorPath());

  std::set<std::string> Have;
  for (const Transition &T : PP.Prog.transitions())
    Have.insert(describe(PP, T));

  // The 17 transitions listed in Section 3 (l0=0, l1=1, l2=2, lE=3; the
  // X'=X bridges are labeled enter-block/exit-block here).
  const char *Listed[] = {
      // Path spine.
      "l0,0 -> l1,1 : rho0",
      "l1,1 -> l2,2 : rho1",
      "l2,2 -> l1,3 : rho2",
      "l1,3 -> l0,4 : rho3",
      "l0,4 -> l1,5 : rho0",
      "l1,5 -> l0,6 : rho3",
      "l0,6 -> l3,7 : rho4",
      // Inner-block hats at position 3.
      "l1,3 -> ^l1,3 : enter-block",
      "^l1,3 -> l1,3 : exit-block",
      "^l1,3 -> ^l2,3 : rho1",
      "^l2,3 -> ^l1,3 : rho2",
      // Outer-block hats at position 6.
      "l0,6 -> ^l0,6 : enter-block",
      "^l0,6 -> l0,6 : exit-block",
      "^l0,6 -> ^l1,6 : rho0",
      "^l1,6 -> ^l2,6 : rho1",
      "^l2,6 -> ^l1,6 : rho2",
      "^l1,6 -> ^l0,6 : rho3",
  };
  for (const char *Want : Listed)
    EXPECT_TRUE(Have.count(Want)) << "missing transition: " << Want;

  // The formal rule also covers the *second* exit of the inner block at
  // position 5 (the paper's listing omits it); these four transitions
  // enlarge the represented family of unwindings.
  const char *FormalExtra[] = {
      "l1,5 -> ^l1,5 : enter-block",
      "^l1,5 -> l1,5 : exit-block",
      "^l1,5 -> ^l2,5 : rho1",
      "^l2,5 -> ^l1,5 : rho2",
  };
  for (const char *Want : FormalExtra)
    EXPECT_TRUE(Have.count(Want)) << "missing transition: " << Want;

  EXPECT_EQ(Have.size(), 21u) << "exactly listed + formal-rule extras";
}

TEST(PathProgramTest, EntryErrorAndProvenance) {
  Section3Example Ex;
  PathProgram PP = buildPathProgram(*Ex.P, Ex.errorPath());
  const PathLocInfo &Entry = PP.LocInfo[PP.Prog.entry()];
  EXPECT_EQ(Entry.OrigLoc, Ex.L0);
  EXPECT_EQ(Entry.Position, 0);
  const PathLocInfo &Error = PP.LocInfo[PP.Prog.error()];
  EXPECT_EQ(Error.OrigLoc, Ex.LE);
  EXPECT_EQ(Error.Position, 7);
  // copiesOf projects back: l1 has copies at positions 1, 3, 5 (plain)
  // plus hats at 3, 5, 6.
  std::vector<LocId> Copies = PP.copiesOf(Ex.L1);
  EXPECT_EQ(Copies.size(), 6u);
}

TEST(PathProgramTest, ForwardCounterexampleYieldsLoopingPathProgram) {
  TermManager TM;
  auto P = loadProgram(TM, testprogs::Forward);
  ASSERT_TRUE(P.hasValue());
  const Program &Prog = P.get();

  // Build the Figure 1(b) counterexample: one loop iteration through the
  // then-branch, then exit and fail the assertion. Find it by BFS to the
  // error with exactly one traversal of the loop body.
  struct Node {
    LocId Loc;
    Path Steps;
  };
  Path Found;
  std::vector<Node> Queue{{Prog.entry(), {}}};
  for (size_t Head = 0; Head < Queue.size() && Found.empty(); ++Head) {
    Node Cur = Queue[Head];
    if (Cur.Loc == Prog.error()) {
      // Require a path that used the loop (long enough to contain it).
      if (Cur.Steps.size() >= 10)
        Found = Cur.Steps;
      continue;
    }
    if (Cur.Steps.size() >= 16)
      continue;
    for (int TransIdx : Prog.successorsOf(Cur.Loc)) {
      Node Next = Cur;
      Next.Steps.push_back(TransIdx);
      Next.Loc = Prog.transition(TransIdx).To;
      Queue.push_back(std::move(Next));
    }
  }
  ASSERT_FALSE(Found.empty());

  PathProgram PP = buildPathProgram(Prog, Found);
  // One nested block (the while loop).
  EXPECT_EQ(PP.Blocks.size(), 1u);
  // The path program has a cycle: its cutset exceeds {entry, error}.
  std::set<LocId> Cuts = computeCutSet(PP.Prog);
  EXPECT_GT(Cuts.size(), 2u);
  // Every location of the path program projects to a location of pi.
  for (const PathLocInfo &Info : PP.LocInfo) {
    EXPECT_GE(Info.OrigLoc, 0);
    EXPECT_LT(Info.OrigLoc, Prog.numLocations());
  }
  // The path program is itself a program whose own error paths are all
  // infeasible (the family of spurious counterexamples): check the two
  // shortest.
  smt::SolverContext Solver(TM);
  std::vector<Path> ErrorPaths;
  std::vector<Node> Queue2{{PP.Prog.entry(), {}}};
  for (size_t Head = 0; Head < Queue2.size() && ErrorPaths.size() < 2;
       ++Head) {
    Node Cur = Queue2[Head];
    if (Cur.Loc == PP.Prog.error()) {
      ErrorPaths.push_back(Cur.Steps);
      continue;
    }
    if (Cur.Steps.size() >= 24)
      continue;
    for (int TransIdx : PP.Prog.successorsOf(Cur.Loc)) {
      Node Next = Cur;
      Next.Steps.push_back(TransIdx);
      Next.Loc = PP.Prog.transition(TransIdx).To;
      Queue2.push_back(std::move(Next));
    }
  }
  ASSERT_GE(ErrorPaths.size(), 1u);
  for (const Path &Pi : ErrorPaths) {
    PathFormula PF = buildPathFormula(PP.Prog, Pi);
    EXPECT_TRUE(Solver.checkFormula(PF.formula(TM)).isUnsat())
        << "path program admits a feasible error path";
  }
}

TEST(PathProgramTest, NoLoopsMeansNoHats) {
  TermManager TM;
  auto P = loadProgram(TM, testprogs::StraightSafe);
  ASSERT_TRUE(P.hasValue());
  // Error path: entry -> ... -> error (assert's negated edge).
  struct Node {
    LocId Loc;
    Path Steps;
  };
  Path Found;
  std::vector<Node> Queue{{P.get().entry(), {}}};
  for (size_t Head = 0; Head < Queue.size() && Found.empty(); ++Head) {
    Node Cur = Queue[Head];
    if (Cur.Loc == P.get().error()) {
      Found = Cur.Steps;
      break;
    }
    for (int TransIdx : P.get().successorsOf(Cur.Loc)) {
      Node Next = Cur;
      Next.Steps.push_back(TransIdx);
      Next.Loc = P.get().transition(TransIdx).To;
      Queue.push_back(std::move(Next));
    }
  }
  ASSERT_FALSE(Found.empty());
  PathProgram PP = buildPathProgram(P.get(), Found);
  EXPECT_TRUE(PP.Blocks.empty());
  for (const PathLocInfo &Info : PP.LocInfo)
    EXPECT_FALSE(Info.IsHat);
  EXPECT_EQ(static_cast<size_t>(PP.Prog.numTransitions()), Found.size());
}

} // namespace
