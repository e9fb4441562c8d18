#include "ml/serialization.h"

#include <cmath>

#include "common/macros.h"

#include "ml/decision_tree.h"
#include "ml/hist_gradient_boosting.h"
#include "ml/linear_regression.h"
#include "ml/linear_svr.h"
#include "ml/random_forest.h"

namespace nextmaint {
namespace ml {

namespace {

/// The C locale's isspace, which is what `istream >>` splits tokens on.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Whether decoded tree node `index` of `node_count` is sound (see
/// ReadTreeNodes).
bool ValidTreeNode(const GrowNode& node, size_t index, size_t node_count,
                   size_t num_features) {
  if (node.is_leaf()) return true;
  const auto after = [&](int32_t child) {
    return child > 0 && static_cast<size_t>(child) > index &&
           static_cast<size_t>(child) < node_count;
  };
  return after(node.left) && after(node.right) && node.feature >= 0 &&
         static_cast<size_t>(node.feature) < num_features;
}

}  // namespace

ModelWriter& ModelWriter::Put(double value) {
  // "-2.2250738585072014e-308" is 24 characters, the longest %.17g form.
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, 17);
  out_.append(buffer, result.ptr);
  return *this;
}

std::string_view ModelReader::Token() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  const size_t begin = pos_;
  while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
  return text_.substr(begin, pos_ - begin);
}

bool ModelReader::ReadOne(double& value) {
  const std::string_view token = Token();
  const char* end = token.data() + token.size();
  const auto result = std::from_chars(token.data(), end, value);
  // from_chars also accepts "nan" and "inf", which `istream >> double`
  // never did and Save never writes.
  return result.ec == std::errc() && result.ptr == end &&
         std::isfinite(value);
}

void WriteTreeNodes(ModelWriter& out, std::span<const GrowNode> nodes) {
  out.Line("nodes", nodes.size());
  for (const GrowNode& node : nodes) {
    out.Line(node.left, node.right, node.feature, node.threshold, node.value);
  }
}

Result<std::vector<GrowNode>> ReadTreeNodes(ModelReader& in,
                                            std::string_view model,
                                            size_t num_features) {
  const auto error = [&](std::string_view what) {
    return Status::DataError(std::string(model) + ": " + std::string(what));
  };
  size_t node_count = 0;
  if (!in.Expect("nodes") || !in.Read(node_count)) {
    return error("expected 'nodes <n>'");
  }
  // Five tokens per node line: a count the remaining text cannot hold is
  // corrupt, and is rejected before it sizes the node list.
  if (node_count == 0 || !in.CanHold(node_count, 5)) {
    return error("implausible node count");
  }
  std::vector<GrowNode> nodes(node_count);
  for (size_t i = 0; i < node_count; ++i) {
    GrowNode& node = nodes[i];
    if (!in.Read(node.left, node.right, node.feature, node.threshold,
                 node.value)) {
      return error("truncated node list");
    }
    if (!ValidTreeNode(node, i, node_count, num_features)) {
      return error("node indices out of range");
    }
  }
  return nodes;
}

Result<std::string> ReadModelHeader(ModelReader& in) {
  const std::string_view magic = in.Token();
  const std::string_view version = in.Token();
  const std::string_view name = in.Token();
  if (name.empty()) {
    return Status::DataError("truncated model header");
  }
  if (magic != kModelMagic) {
    return Status::DataError("bad model magic: '" + std::string(magic) + "'");
  }
  if (version != kModelVersion) {
    return Status::DataError("unsupported model format version: " +
                             std::string(version));
  }
  return std::string(name);
}

Result<std::unique_ptr<Regressor>> LoadRegressor(ModelReader& in) {
  NM_ASSIGN_OR_RETURN(std::string name, ReadModelHeader(in));
  return LoadRegressorBody(name, in);
}

Result<std::unique_ptr<Regressor>> LoadRegressor(std::istream& in) {
  const std::string text = ReadModelText(in);
  ModelReader reader(text);
  return LoadRegressor(reader);
}

Result<std::unique_ptr<Regressor>> LoadRegressorBody(const std::string& name,
                                                     ModelReader& in) {
  if (name == "LR") {
    NM_ASSIGN_OR_RETURN(LinearRegression model, LinearRegression::LoadBody(in));
    return std::unique_ptr<Regressor>(
        std::make_unique<LinearRegression>(std::move(model)));
  }
  if (name == "LSVR") {
    NM_ASSIGN_OR_RETURN(LinearSvr model, LinearSvr::LoadBody(in));
    return std::unique_ptr<Regressor>(
        std::make_unique<LinearSvr>(std::move(model)));
  }
  if (name == "Tree") {
    NM_ASSIGN_OR_RETURN(DecisionTreeRegressor model,
                        DecisionTreeRegressor::LoadBody(in));
    return std::unique_ptr<Regressor>(
        std::make_unique<DecisionTreeRegressor>(std::move(model)));
  }
  if (name == "RF") {
    NM_ASSIGN_OR_RETURN(RandomForestRegressor model,
                        RandomForestRegressor::LoadBody(in));
    return std::unique_ptr<Regressor>(
        std::make_unique<RandomForestRegressor>(std::move(model)));
  }
  if (name == "XGB") {
    NM_ASSIGN_OR_RETURN(HistGradientBoostingRegressor model,
                        HistGradientBoostingRegressor::LoadBody(in));
    return std::unique_ptr<Regressor>(
        std::make_unique<HistGradientBoostingRegressor>(std::move(model)));
  }
  return Status::NotFound("unknown serialized model type: '" + name + "'");
}

std::string ReadModelText(std::istream& in) {
  std::string text;
  std::string line;
  int depth = 0;
  while (std::getline(in, line)) {
    text.append(line).push_back('\n');
    const std::string_view first = ModelReader(line).Token();
    if (first.empty()) continue;
    if (first == kModelMagic) {
      ++depth;
    } else if (first == "end") {
      --depth;
    }
    if (depth <= 0) break;
  }
  return text;
}

}  // namespace ml
}  // namespace nextmaint
