// Unit + property tests for the histogram library: axis arithmetic, weighted
// filling, moments, comparisons, and the YODA-like text round-trip.
#include <gtest/gtest.h>

#include <cmath>

#include "hist/axis.h"
#include "hist/compare.h"
#include "hist/histo1d.h"
#include "hist/histo2d.h"
#include "hist/profile1d.h"
#include "hist/yoda_io.h"
#include "support/rng.h"

namespace daspos {
namespace {

// ------------------------------------------------------------------ Axis --

TEST(AxisTest, IndexMapping) {
  Axis a(10, 0.0, 10.0);
  EXPECT_EQ(a.Index(0.0), 0);
  EXPECT_EQ(a.Index(0.999), 0);
  EXPECT_EQ(a.Index(5.0), 5);
  EXPECT_EQ(a.Index(9.9999), 9);
  EXPECT_EQ(a.Index(10.0), Axis::kOverflow);
  EXPECT_EQ(a.Index(-0.1), Axis::kUnderflow);
  EXPECT_EQ(a.Index(std::nan("")), Axis::kOverflow);
}

TEST(AxisTest, Edges) {
  Axis a(4, -2.0, 2.0);
  EXPECT_DOUBLE_EQ(a.width(), 1.0);
  EXPECT_DOUBLE_EQ(a.BinLow(0), -2.0);
  EXPECT_DOUBLE_EQ(a.BinCenter(1), -0.5);
  EXPECT_DOUBLE_EQ(a.BinHigh(3), 2.0);
}

class AxisCoverage : public ::testing::TestWithParam<int> {};

TEST_P(AxisCoverage, EveryBinCenterMapsToItsBin) {
  int nbins = GetParam();
  Axis a(nbins, -3.7, 11.3);
  for (int i = 0; i < nbins; ++i) {
    EXPECT_EQ(a.Index(a.BinCenter(i)), i) << "bin " << i;
    // Computed low edges may round to either side of the mathematical edge;
    // they must land in bin i or its lower neighbour, never further away.
    int edge_bin = a.Index(a.BinLow(i));
    EXPECT_TRUE(edge_bin == i || edge_bin == i - 1 ||
                (i == 0 && edge_bin == 0))
        << "low edge of bin " << i << " mapped to " << edge_bin;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AxisCoverage,
                         ::testing::Values(1, 2, 7, 50, 1000));

// --------------------------------------------------------------- Histo1D --

TEST(Histo1DTest, FillAndContent) {
  Histo1D h("/t/h", 10, 0.0, 10.0);
  h.Fill(0.5);
  h.Fill(0.6, 2.0);
  h.Fill(5.5);
  EXPECT_DOUBLE_EQ(h.BinContent(0), 3.0);
  EXPECT_DOUBLE_EQ(h.BinContent(5), 1.0);
  EXPECT_EQ(h.entries(), 3u);
  EXPECT_DOUBLE_EQ(h.Integral(), 4.0);
}

TEST(Histo1DTest, OutOfRangeTracked) {
  Histo1D h("/t/h", 5, 0.0, 5.0);
  h.Fill(-1.0, 2.0);
  h.Fill(7.0, 3.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 2.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 3.0);
  EXPECT_DOUBLE_EQ(h.Integral(), 0.0);
  EXPECT_EQ(h.entries(), 2u);
}

TEST(Histo1DTest, BinErrorIsSqrtSumW2) {
  Histo1D h("/t/h", 1, 0.0, 1.0);
  h.Fill(0.5, 2.0);
  h.Fill(0.5, 2.0);
  EXPECT_DOUBLE_EQ(h.BinError(0), std::sqrt(8.0));
}

TEST(Histo1DTest, MeanAndStdDev) {
  Histo1D h("/t/h", 100, -10.0, 10.0);
  Rng rng(77);
  for (int i = 0; i < 100000; ++i) h.Fill(rng.Gauss(1.5, 2.0));
  EXPECT_NEAR(h.Mean(), 1.5, 0.05);
  EXPECT_NEAR(h.StdDev(), 2.0, 0.05);
}

TEST(Histo1DTest, ScalePreservesRelativeError) {
  Histo1D h("/t/h", 1, 0.0, 1.0);
  for (int i = 0; i < 100; ++i) h.Fill(0.5);
  double rel_before = h.BinError(0) / h.BinContent(0);
  h.Scale(0.25);
  EXPECT_DOUBLE_EQ(h.BinContent(0), 25.0);
  EXPECT_NEAR(h.BinError(0) / h.BinContent(0), rel_before, 1e-12);
}

TEST(Histo1DTest, NormalizeUnitIntegral) {
  Histo1D h("/t/h", 20, 0.0, 4.0);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) h.Fill(rng.Uniform(0.0, 4.0));
  h.Normalize();
  EXPECT_NEAR(h.Integral(true), 1.0, 1e-12);
}

TEST(Histo1DTest, NormalizeEmptyIsNoOp) {
  Histo1D h("/t/h", 5, 0.0, 1.0);
  h.Normalize();
  EXPECT_DOUBLE_EQ(h.Integral(), 0.0);
}

TEST(Histo1DTest, AddMergesAndChecksBinning) {
  Histo1D a("/t/a", 10, 0.0, 1.0);
  Histo1D b("/t/b", 10, 0.0, 1.0);
  a.Fill(0.15);
  b.Fill(0.15);
  b.Fill(0.85);
  ASSERT_TRUE(a.Add(b).ok());
  EXPECT_DOUBLE_EQ(a.BinContent(1), 2.0);
  EXPECT_DOUBLE_EQ(a.BinContent(8), 1.0);
  EXPECT_EQ(a.entries(), 3u);

  Histo1D c("/t/c", 5, 0.0, 1.0);
  EXPECT_TRUE(a.Add(c).IsInvalidArgument());
}

TEST(Histo1DTest, ResetClearsContentKeepsBinning) {
  Histo1D h("/t/h", 10, 0.0, 1.0);
  h.Fill(0.5);
  h.Reset();
  EXPECT_DOUBLE_EQ(h.Integral(), 0.0);
  EXPECT_EQ(h.entries(), 0u);
  EXPECT_EQ(h.axis().nbins(), 10);
}

// --------------------------------------------------------------- Histo2D --

TEST(Histo2DTest, FillAndProjection) {
  Histo2D h("/t/h2", 4, 0.0, 4.0, 2, 0.0, 2.0);
  h.Fill(0.5, 0.5);
  h.Fill(0.5, 1.5, 2.0);
  h.Fill(3.5, 0.5);
  EXPECT_DOUBLE_EQ(h.BinContent(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(h.BinContent(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(h.Integral(), 4.0);
  Histo1D px = h.ProjectionX();
  EXPECT_DOUBLE_EQ(px.BinContent(0), 3.0);
  EXPECT_DOUBLE_EQ(px.BinContent(3), 1.0);
}

TEST(Histo2DTest, OutsideCounted) {
  Histo2D h("/t/h2", 2, 0.0, 1.0, 2, 0.0, 1.0);
  h.Fill(-1.0, 0.5);
  h.Fill(0.5, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(h.outside(), 4.0);
  EXPECT_DOUBLE_EQ(h.Integral(), 0.0);
}

TEST(Histo2DTest, AddChecksBothAxes) {
  Histo2D a("/a", 2, 0.0, 1.0, 2, 0.0, 1.0);
  Histo2D b("/b", 2, 0.0, 1.0, 3, 0.0, 1.0);
  EXPECT_TRUE(a.Add(b).IsInvalidArgument());
}

// ------------------------------------------------------------- Profile1D --

TEST(Profile1DTest, BinMeans) {
  Profile1D p("/t/p", 2, 0.0, 2.0);
  p.Fill(0.5, 10.0);
  p.Fill(0.5, 20.0);
  p.Fill(1.5, 5.0);
  EXPECT_DOUBLE_EQ(p.BinMean(0), 15.0);
  EXPECT_DOUBLE_EQ(p.BinMean(1), 5.0);
  EXPECT_DOUBLE_EQ(p.BinRms(0), 5.0);
  EXPECT_DOUBLE_EQ(p.BinRms(1), 0.0);
}

TEST(Profile1DTest, EmptyBinIsZero) {
  Profile1D p("/t/p", 3, 0.0, 3.0);
  EXPECT_DOUBLE_EQ(p.BinMean(1), 0.0);
  EXPECT_DOUBLE_EQ(p.BinMeanError(1), 0.0);
}

TEST(Profile1DTest, MeanErrorShrinksWithStatistics) {
  Profile1D p("/t/p", 1, 0.0, 1.0);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) p.Fill(0.5, rng.Gauss(0.0, 1.0));
  double err100 = p.BinMeanError(0);
  for (int i = 0; i < 9900; ++i) p.Fill(0.5, rng.Gauss(0.0, 1.0));
  EXPECT_LT(p.BinMeanError(0), err100);
}

// --------------------------------------------------------------- Compare --

TEST(CompareTest, IdenticalHistosHaveZeroChi2) {
  Histo1D a("/a", 10, 0.0, 1.0);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) a.Fill(rng.Uniform());
  Histo1D b = a;
  auto r = Chi2Test(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->chi2, 0.0);
  EXPECT_GT(r->ndof, 0);
}

TEST(CompareTest, SameDistributionIsCompatible) {
  Histo1D a("/a", 20, -4.0, 4.0);
  Histo1D b("/b", 20, -4.0, 4.0);
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) a.Fill(rng.Gauss());
  for (int i = 0; i < 20000; ++i) b.Fill(rng.Gauss());
  auto r = Chi2Test(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->reduced(), 2.5);
  auto ks = KolmogorovDistance(a, b);
  ASSERT_TRUE(ks.ok());
  EXPECT_LT(*ks, 0.03);
}

TEST(CompareTest, ShiftedDistributionIsIncompatible) {
  Histo1D a("/a", 20, -4.0, 4.0);
  Histo1D b("/b", 20, -4.0, 4.0);
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) a.Fill(rng.Gauss(0.0, 1.0));
  for (int i = 0; i < 20000; ++i) b.Fill(rng.Gauss(1.0, 1.0));
  auto r = Chi2Test(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->reduced(), 10.0);
  auto ks = KolmogorovDistance(a, b);
  ASSERT_TRUE(ks.ok());
  EXPECT_GT(*ks, 0.2);
}

TEST(CompareTest, BinningMismatchIsError) {
  Histo1D a("/a", 10, 0.0, 1.0);
  Histo1D b("/b", 11, 0.0, 1.0);
  EXPECT_FALSE(Chi2Test(a, b).ok());
  EXPECT_FALSE(KolmogorovDistance(a, b).ok());
  EXPECT_FALSE(CompatibleWithin(a, b, 3.0).ok());
}

TEST(CompareTest, KsOnEmptyHistograms) {
  Histo1D a("/a", 10, 0.0, 1.0);
  Histo1D b("/b", 10, 0.0, 1.0);
  // Both empty: the same (empty) distribution.
  auto both = KolmogorovDistance(a, b);
  ASSERT_TRUE(both.ok()) << both.status();
  EXPECT_EQ(*both, 0.0);
  // One side empty: a mismatch, in either order.
  b.Fill(0.5);
  auto one = KolmogorovDistance(a, b);
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(*one, 1.0);
  EXPECT_EQ(*KolmogorovDistance(b, a), 1.0);
  // Binning is still checked first.
  Histo1D c("/c", 11, 0.0, 1.0);
  EXPECT_FALSE(KolmogorovDistance(a, c).ok());
}

TEST(CompareTest, CompatibleWithinSigma) {
  Histo1D a("/a", 5, 0.0, 5.0);
  Histo1D b("/b", 5, 0.0, 5.0);
  for (int i = 0; i < 100; ++i) {
    a.Fill(2.5);
    b.Fill(2.5);
  }
  b.Fill(2.5);  // one extra entry, well within sqrt(100) errors
  auto ok = CompatibleWithin(a, b, 3.0);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

// ---------------------------------------------------------------- YodaIO --

TEST(YodaIoTest, RoundTrip) {
  Histo1D h1("/ANALYSIS/mll", 30, 60.0, 120.0);
  Histo1D h2("/ANALYSIS/pt", 10, 0.0, 100.0);
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    h1.Fill(rng.BreitWigner(91.2, 2.5), 0.7);
    h2.Fill(rng.Exponential(20.0));
  }
  h1.Fill(-999.0);  // underflow
  h1.Fill(999.0);   // overflow

  std::string text = WriteYoda({h1, h2});
  auto parsed = ReadYoda(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);

  const Histo1D& r1 = (*parsed)[0];
  EXPECT_EQ(r1.path(), "/ANALYSIS/mll");
  EXPECT_EQ(r1.axis().nbins(), 30);
  EXPECT_DOUBLE_EQ(r1.axis().lo(), 60.0);
  EXPECT_EQ(r1.entries(), h1.entries());
  EXPECT_DOUBLE_EQ(r1.underflow(), h1.underflow());
  for (int i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(r1.BinContent(i), h1.BinContent(i)) << "bin " << i;
    EXPECT_DOUBLE_EQ(r1.BinError(i), h1.BinError(i)) << "bin " << i;
  }
}

TEST(YodaIoTest, CommentsAndBlankLinesTolerated) {
  Histo1D h("/x", 2, 0.0, 1.0);
  h.Fill(0.25);
  std::string text = "# preserved reference data\n\n" + WriteYoda({h});
  auto parsed = ReadYoda(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 1u);
}

TEST(YodaIoTest, StructuralErrorsRejected) {
  EXPECT_FALSE(ReadYoda("garbage\n").ok());
  EXPECT_FALSE(ReadYoda("BEGIN HISTO1D /x\nbinning: 0 0 1\n").ok());
  EXPECT_FALSE(ReadYoda("BEGIN HISTO1D /x\nbinning: 2 0 1\n").ok());
  // Missing END.
  Histo1D h("/x", 1, 0.0, 1.0);
  std::string text = WriteYoda({h});
  text = text.substr(0, text.find("END"));
  EXPECT_FALSE(ReadYoda(text).ok());
}

TEST(YodaIoTest, MixedDocumentRoundTrip) {
  YodaDocument document;
  Histo1D h1("/doc/h1", 10, 0.0, 10.0);
  Histo2D h2("/doc/grid", 4, 100.0, 500.0, 3, 0.0, 30.0);
  Profile1D profile("/doc/response", 5, -2.5, 2.5);
  Rng rng(21);
  for (int i = 0; i < 500; ++i) {
    h1.Fill(rng.Uniform(0.0, 10.0));
    h2.Fill(rng.Uniform(100.0, 500.0), rng.Uniform(0.0, 30.0), 0.3);
    profile.Fill(rng.Uniform(-2.5, 2.5), rng.Gauss(1.0, 0.1));
  }
  h2.Fill(-5.0, 1.0);  // outside
  document.histos1d.push_back(h1);
  document.histos2d.push_back(h2);
  document.profiles.push_back(profile);

  std::string text = WriteYodaDocument(document);
  auto restored = ReadYodaDocument(text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->histos1d.size(), 1u);
  ASSERT_EQ(restored->histos2d.size(), 1u);
  ASSERT_EQ(restored->profiles.size(), 1u);

  const Histo2D& r2 = restored->histos2d[0];
  EXPECT_EQ(r2.path(), "/doc/grid");
  EXPECT_DOUBLE_EQ(r2.outside(), h2.outside());
  EXPECT_EQ(r2.entries(), h2.entries());
  for (int ix = 0; ix < 4; ++ix) {
    for (int iy = 0; iy < 3; ++iy) {
      EXPECT_DOUBLE_EQ(r2.BinContent(ix, iy), h2.BinContent(ix, iy));
      EXPECT_DOUBLE_EQ(r2.BinError(ix, iy), h2.BinError(ix, iy));
    }
  }
  const Profile1D& rp = restored->profiles[0];
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(rp.BinMean(i), profile.BinMean(i));
    EXPECT_DOUBLE_EQ(rp.BinRms(i), profile.BinRms(i));
  }
  // 1D content also survives via the document path.
  EXPECT_DOUBLE_EQ(restored->histos1d[0].Integral(), h1.Integral());
}

TEST(YodaIoTest, DocumentReaderAcceptsPlain1DOutput) {
  Histo1D h("/x", 3, 0.0, 3.0);
  h.Fill(1.5);
  auto document = ReadYodaDocument(WriteYoda({h}));
  ASSERT_TRUE(document.ok());
  EXPECT_EQ(document->histos1d.size(), 1u);
  EXPECT_TRUE(document->histos2d.empty());
}

TEST(YodaIoTest, Plain1DReaderRejects2DBlocks) {
  YodaDocument document;
  document.histos2d.emplace_back("/g", 2, 0.0, 1.0, 2, 0.0, 1.0);
  std::string text = WriteYodaDocument(document);
  EXPECT_FALSE(ReadYoda(text).ok());
  EXPECT_TRUE(ReadYodaDocument(text).ok());
}

TEST(YodaIoTest, DocumentStructuralErrors) {
  EXPECT_FALSE(ReadYodaDocument("BEGIN HISTO2D /x\n").ok());
  EXPECT_FALSE(ReadYodaDocument("BEGIN PROFILE1D /x\nbinning: 1 0 1\n").ok());
  EXPECT_FALSE(ReadYodaDocument("nonsense\n").ok());
}

TEST(YodaIoTest, EmptyDocumentYieldsNoHistograms) {
  auto parsed = ReadYoda("  \n# only comments\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

}  // namespace
}  // namespace daspos
