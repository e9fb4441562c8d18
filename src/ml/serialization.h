#ifndef NEXTMAINT_ML_SERIALIZATION_H_
#define NEXTMAINT_ML_SERIALIZATION_H_

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ml/regressor.h"
#include "ml/tree_node.h"

/// \file serialization.h
/// Model persistence.
///
/// Every fitted model serializes to a line-oriented text format via
/// Regressor::Save; this header provides the writer, the reader and the
/// loaders. The format is versioned ("nextmaint-model v1 <name>") and
/// deliberately human-auditable — the deployed system stores per-vehicle
/// models alongside the fleet database and operators occasionally inspect
/// them.
///
/// ModelWriter appends to a std::string through std::to_chars: doubles
/// print as %.17g, which round-trips every finite double and is the byte
/// form `ostream << double` at precision(17) always wrote, integers in
/// decimal. ModelReader walks a std::string_view with std::from_chars, so
/// a model parses in place from a mapped checkpoint segment. Decoders
/// check every declared count against the unread bytes before allocating,
/// so corrupt input costs at most a small multiple of its own size. The
/// std::ostream / std::istream entry points are adapters over the same
/// pair. See docs/storage.md ("Model codec").
///
/// The reader recognises the generic model zoo (LR, LSVR, Tree, RF, XGB).
/// The problem-specific BL predictor lives in core; use
/// core::LoadAnyModel to read files that may contain either kind.

namespace nextmaint {
namespace ml {

/// Magic first token of every serialized model.
inline constexpr const char* kModelMagic = "nextmaint-model";
/// Current format version token.
inline constexpr const char* kModelVersion = "v1";

/// Appends a model's text form to a std::string, which must outlive the
/// writer.
class ModelWriter {
 public:
  explicit ModelWriter(std::string& out) : out_(out) {}

  ModelWriter& Put(std::string_view text) {
    out_.append(text);
    return *this;
  }
  ModelWriter& Put(char c) {
    out_.push_back(c);
    return *this;
  }
  /// %.17g — the bytes `ostream << double` printed at precision(17).
  ModelWriter& Put(double value);
  template <std::integral T>
  ModelWriter& Put(T value) {
    char buffer[24];
    const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
    out_.append(buffer, result.ptr);
    return *this;
  }

  /// Writes `fields` separated by single spaces, then a newline.
  template <typename First, typename... Rest>
  ModelWriter& Line(const First& first, const Rest&... rest) {
    Put(first);
    ((Put(' '), Put(rest)), ...);
    return Put('\n');
  }

 private:
  std::string& out_;
};

/// Reads a model's text form from a std::string_view, which must outlive
/// the reader. Tokens are separated by ASCII whitespace, as `istream >>`
/// splits them, and a number must fill its whole token.
class ModelReader {
 public:
  explicit ModelReader(std::string_view text) : text_(text) {}

  /// The next token; empty at the end of the text.
  std::string_view Token();

  /// Reads the next token and reports whether it is `keyword`.
  [[nodiscard]] bool Expect(std::string_view keyword) {
    return Token() == keyword;
  }

  /// Parses the next tokens into `values`, in order. False when the text
  /// ends or a token is not a number of its value's type; doubles must be
  /// finite and written without a leading '+' (no Save writes either).
  template <typename... T>
  [[nodiscard]] bool Read(T&... values) {
    return (ReadOne(values) && ...);
  }

  /// Whether the unread text can hold `count` items of `tokens_each`
  /// tokens. Every token takes at least two bytes (a separator and one
  /// character), so decoders call this before sizing a container by a
  /// count read from the input.
  [[nodiscard]] bool CanHold(size_t count, size_t tokens_each) const {
    return count <= (text_.size() - pos_) / (2 * tokens_each);
  }

 private:
  bool ReadOne(double& value);
  template <std::integral T>
  bool ReadOne(T& value) {
    const std::string_view token = Token();
    const char* end = token.data() + token.size();
    const auto result = std::from_chars(token.data(), end, value);
    return result.ec == std::errc() && result.ptr == end;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// The node-list codec of every tree format (a Tree body, each tree of an
/// XGB body): a "nodes <n>" line, then one "left right feature threshold
/// value" line per node. Split gains are not written.
void WriteTreeNodes(ModelWriter& out, std::span<const GrowNode> nodes);

/// Reads what WriteTreeNodes wrote for a model of `num_features` features.
/// The count is checked against the unread text before it sizes the list,
/// and every node must be a leaf or a split on a feature below
/// `num_features` whose children come after it. The growers emit nodes
/// depth-first, parent first, so every saved tree passes; the ordering also
/// rules out the cycles a corrupt file could otherwise send Predict around
/// forever. Errors are DataErrors prefixed with `model`.
[[nodiscard]] Result<std::vector<GrowNode>> ReadTreeNodes(
    ModelReader& in, std::string_view model, size_t num_features);

/// Reads the "nextmaint-model v1 <name>" header and returns the model name,
/// leaving the reader at the model body. Fails with DataError on malformed
/// or version-mismatched headers.
[[nodiscard]] Result<std::string> ReadModelHeader(ModelReader& in);

/// Reconstructs a model serialized by Regressor::Save. Fails with NotFound
/// for model names this reader does not know (e.g. "BL" — see
/// core::LoadAnyModel).
[[nodiscard]] Result<std::unique_ptr<Regressor>> LoadRegressor(ModelReader& in);

/// Stream adapter: consumes exactly one model from `in` (see
/// ReadModelText) and loads it.
[[nodiscard]] Result<std::unique_ptr<Regressor>> LoadRegressor(std::istream& in);

/// Loads a model whose header has already been consumed (used by
/// LoadRegressor and by core::LoadAnyModel to dispatch on the name).
[[nodiscard]] Result<std::unique_ptr<Regressor>> LoadRegressorBody(
    const std::string& name, ModelReader& in);

/// Takes the next model's text off `in`: whole lines, from its header line
/// through the "end" line that closes it (an RF nests whole Tree models),
/// so a stream holding models back to back yields one per call. Stops
/// early at a line that cannot start a model and returns what it read;
/// the parser then reports the error.
std::string ReadModelText(std::istream& in);

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_SERIALIZATION_H_
