//===- problems/Pentomino.cpp - Pentomino exact-cover search --------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "problems/Pentomino.h"
#include "problems/ProblemRegistry.h"
#include "support/Compiler.h"

#include <algorithm>
#include <array>
#include <set>

using namespace atc;

namespace {

using CellSet = std::array<std::pair<int, int>, Pentomino::CellsPerPiece>;

/// Base shapes of the 12 pentominoes in canonical F I L N P T U V W X Y Z
/// order, as (row, col) cell sets.
constexpr std::pair<int, int>
    BaseShapes[Pentomino::NumBasePieces][Pentomino::CellsPerPiece] = {
        {{0, 1}, {0, 2}, {1, 0}, {1, 1}, {2, 1}}, // F
        {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}}, // I
        {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 1}}, // L
        {{0, 1}, {1, 1}, {2, 0}, {2, 1}, {3, 0}}, // N
        {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}}, // P
        {{0, 0}, {0, 1}, {0, 2}, {1, 1}, {2, 1}}, // T
        {{0, 0}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}, // U
        {{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2}}, // V
        {{0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 2}}, // W
        {{0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}}, // X
        {{0, 1}, {1, 0}, {1, 1}, {2, 1}, {3, 1}}, // Y
        {{0, 0}, {0, 1}, {1, 1}, {2, 1}, {2, 2}}, // Z
};

constexpr const char *PieceNames[Pentomino::NumBasePieces] = {
    "F", "I", "L", "N", "P", "T", "U", "V", "W", "X", "Y", "Z"};

/// Normalizes a cell set: shifts to non-negative coordinates with min row
/// and min col at 0, then sorts row-major.
CellSet normalize(CellSet Cells) {
  int MinR = Cells[0].first, MinC = Cells[0].second;
  for (const auto &[R, C] : Cells) {
    MinR = std::min(MinR, R);
    MinC = std::min(MinC, C);
  }
  for (auto &[R, C] : Cells) {
    R -= MinR;
    C -= MinC;
  }
  std::sort(Cells.begin(), Cells.end());
  return Cells;
}

CellSet rotate90(const CellSet &Cells) {
  CellSet Out;
  for (std::size_t I = 0; I < Cells.size(); ++I)
    Out[I] = {Cells[I].second, -Cells[I].first};
  return normalize(Out);
}

CellSet reflect(const CellSet &Cells) {
  CellSet Out;
  for (std::size_t I = 0; I < Cells.size(); ++I)
    Out[I] = {Cells[I].first, -Cells[I].second};
  return normalize(Out);
}

/// All distinct orientations (rotations x reflections) of one base shape.
std::vector<CellSet> allOrientations(int Piece) {
  std::set<CellSet> Seen;
  CellSet Cur;
  for (int I = 0; I < Pentomino::CellsPerPiece; ++I)
    Cur[static_cast<std::size_t>(I)] = BaseShapes[Piece][I];
  Cur = normalize(Cur);
  for (int Mirror = 0; Mirror < 2; ++Mirror) {
    for (int Rot = 0; Rot < 4; ++Rot) {
      Seen.insert(Cur);
      Cur = rotate90(Cur);
    }
    Cur = reflect(Cur);
  }
  return {Seen.begin(), Seen.end()};
}

/// Converts a normalized cell set into an Orientation anchored at its
/// first cell in row-major order (offsets relative to that anchor; the
/// anchor offset is (0, 0) and all row offsets are non-negative).
Pentomino::Orientation makeOrientation(int Piece, const CellSet &Cells) {
  Pentomino::Orientation O;
  O.Piece = Piece;
  int AR = Cells[0].first, AC = Cells[0].second;
  for (std::size_t I = 0; I < Cells.size(); ++I) {
    O.DR[I] = static_cast<signed char>(Cells[I].first - AR);
    O.DC[I] = static_cast<signed char>(Cells[I].second - AC);
  }
  return O;
}

} // namespace

Pentomino::Pentomino(int Width, int Height, int NumPieces)
    : W(Width), H(Height), Pieces(NumPieces) {
  assert(W >= 1 && H >= 1 && "degenerate board");
  assert(Pieces >= 1 && Pieces <= MaxPieces && "piece count out of range");
  assert(W * H == CellsPerPiece * Pieces &&
         "board area must equal 5 * pieces");
  assert(W * H <= MaxCells && "board too large");

  for (int R = 0; R < H; ++R)
    for (int C = 0; C < W; ++C)
      FullMask.set(cellIndex(R, C));

  for (int Identity = 0; Identity < Pieces; ++Identity) {
    int Base = Identity % NumBasePieces;
    for (const CellSet &Cells : allOrientations(Base))
      Choices.push_back({Identity, makeOrientation(Base, Cells)});
  }
}

bool Pentomino::applyChoice(State &S, int Depth, int K) const {
  const Choice &Ch = Choices[static_cast<std::size_t>(K)];
  if (S.UsedPieces & (1u << Ch.PieceIdentity))
    return false;

  // The anchor must land on the first empty cell: exact cover in
  // first-cell order visits every tiling exactly once.
  BitBoard128 Empty = ~S.Occupied & FullMask;
  assert(Empty.any() && "applyChoice on a full board");
  int Anchor = Empty.firstSet();
  int AR = Anchor / W, AC = Anchor % W;

  BitBoard128 Placed;
  for (int I = 0; I < CellsPerPiece; ++I) {
    int R = AR + Ch.Shape.DR[I];
    int C = AC + Ch.Shape.DC[I];
    if (R >= H || C < 0 || C >= W)
      return false;
    int Cell = cellIndex(R, C);
    if (S.Occupied.test(Cell))
      return false;
    Placed.set(Cell);
  }

  S.Occupied = S.Occupied | Placed;
  S.UsedPieces |= 1u << Ch.PieceIdentity;
  S.PlacedMask[Depth] = Placed;
  return true;
}

void Pentomino::undoChoice(State &S, int Depth, int K) const {
  const Choice &Ch = Choices[static_cast<std::size_t>(K)];
  S.Occupied = S.Occupied & ~S.PlacedMask[Depth];
  S.UsedPieces &= ~(1u << Ch.PieceIdentity);
}

int Pentomino::orientationCount(int Piece) const {
  int Count = 0;
  for (const Choice &Ch : Choices)
    if (Ch.PieceIdentity == Piece)
      ++Count;
  return Count;
}

const char *Pentomino::pieceName(int Piece) {
  assert(Piece >= 0 && Piece < NumBasePieces && "piece id out of range");
  return PieceNames[Piece];
}

// The Pentomino scheduler matrix (see problems/ProblemRegistry.h).
namespace atc {
ATC_RUN_PROBLEM_INSTANTIATION(Pentomino);
} // namespace atc
