// Grid file parser/writer and table formatter.
#include <gtest/gtest.h>

#include <sstream>

#include "src/common/error.hpp"
#include "src/io/grid_file.hpp"
#include "src/io/table.hpp"

namespace ebem::io {
namespace {

TEST(GridFile, ParsesUniformSoilAndConductors) {
  std::istringstream is(R"(# test grid
soil uniform 0.016
conductor 0 0 -0.8  10 0 -0.8  0.006
conductor 0 0 -0.8  0 10 -0.8  0.006
)");
  const GridDescription d = read_grid(is);
  ASSERT_EQ(d.soil_layers.size(), 1u);
  EXPECT_DOUBLE_EQ(d.soil_layers[0].conductivity, 0.016);
  ASSERT_EQ(d.conductors.size(), 2u);
  EXPECT_DOUBLE_EQ(d.conductors[0].b.x, 10.0);
  EXPECT_TRUE(d.soil().is_uniform());
}

TEST(GridFile, ParsesLayeredSoilAndRods) {
  std::istringstream is(R"(
soil layer 0.005 1.0
soil layer 0.016 0
rod 5 5 0.8 1.5 0.007
)");
  const GridDescription d = read_grid(is);
  const auto soil = d.soil();
  EXPECT_EQ(soil.layer_count(), 2u);
  EXPECT_DOUBLE_EQ(soil.interface_depth(0), 1.0);
  ASSERT_EQ(d.conductors.size(), 1u);
  EXPECT_DOUBLE_EQ(d.conductors[0].a.z, -0.8);
  EXPECT_DOUBLE_EQ(d.conductors[0].b.z, -2.3);
  EXPECT_DOUBLE_EQ(d.conductors[0].radius, 0.007);
}

TEST(GridFile, CommentsAndBlankLinesIgnored) {
  std::istringstream is(R"(
# full-line comment

soil uniform 0.02   # trailing comment
conductor 0 0 -1 1 0 -1 0.01
)");
  const GridDescription d = read_grid(is);
  EXPECT_EQ(d.conductors.size(), 1u);
}

TEST(GridFile, ErrorsCarryLineNumbers) {
  std::istringstream is("soil uniform 0.02\nconductor 1 2 3\n");
  try {
    (void)read_grid(is);
    FAIL() << "should have thrown";
  } catch (const ebem::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(GridFile, UnknownKeywordRejected) {
  std::istringstream is("wire 0 0 0 1 1 1 0.01\n");
  EXPECT_THROW((void)read_grid(is), ebem::InvalidArgument);
}

TEST(GridFile, MissingSoilRejected) {
  std::istringstream is("conductor 0 0 -1 1 0 -1 0.01\n");
  EXPECT_THROW((void)read_grid(is), ebem::InvalidArgument);
}

TEST(GridFile, MissingConductorsRejected) {
  std::istringstream is("soil uniform 0.02\n");
  EXPECT_THROW((void)read_grid(is), ebem::InvalidArgument);
}

TEST(GridFile, RoundTripPreservesEverything) {
  GridDescription original;
  original.soil_layers = {{0.005, 1.0}, {0.016, 0.0}};
  original.conductors = {{{0, 0, -0.8}, {12.5, 0, -0.8}, 0.006},
                         {{5, 5, -0.8}, {5, 5, -2.3}, 0.007}};
  std::ostringstream os;
  write_grid(os, original);
  std::istringstream is(os.str());
  const GridDescription parsed = read_grid(is);
  ASSERT_EQ(parsed.soil_layers.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.soil_layers[0].thickness, 1.0);
  ASSERT_EQ(parsed.conductors.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.conductors[0].b.x, 12.5);
  EXPECT_DOUBLE_EQ(parsed.conductors[1].radius, 0.007);
}

TEST(Table, FormatsAlignedColumns) {
  Table table({"Soil Model", "R (Ohm)"});
  table.add_row({"A", Table::num(0.3366)});
  table.add_row({"B", Table::num(0.3522)});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("Soil Model"), std::string::npos);
  EXPECT_NE(text.find("0.3366"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, RowWidthValidated) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), ebem::InvalidArgument);
}

TEST(Table, NumPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(8.0, 0), "8");
}

}  // namespace
}  // namespace ebem::io
