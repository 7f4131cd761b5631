//===- support/Serialize.h - Symmetric binary archives --------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian archives for the simulator's checkpoint blobs
/// (sim/Snapshot.h), device state and the fleet's pipe records. Each
/// record is described once, as a function over the archive:
///
///   auto Entry = [](auto &A, auto &E) {
///     A.u8(E.Kind, Kind::Last, "kind out of range");
///     A.u32(E.Value);
///     A.seq(E.Words, AsU64);
///   };
///
/// Run on an ArchiveWriter with a const record, the description appends
/// the fields; run on an ArchiveReader with a mutable one, it reads them
/// back. Both directions run the same code, so they agree on the field
/// order by construction. The format is deliberately dumb —
/// fixed-width integers, u64-length-prefixed strings and sequences, no
/// alignment, no varints — because the property that matters is
/// byte-exact reproducibility: the same state serializes to the same
/// bytes on every host, so checkpoint digests and fleet reports stay
/// deterministic.
///
/// ArchiveReader never throws, never reads past the end and never
/// allocates for a count the input cannot back. An underrun or a failed
/// check fails it for good: later reads yield zeros and later checks
/// are skipped, so error() names the first problem, and the caller
/// tests ok() once at the end. Two rules refuse hostile input in one
/// place:
///   * seq() accepts a count only if count x the smallest encoding of
///     one element fits in the bytes left, before it allocates. The
///     smallest encoding is measured by running the element's
///     description on a default-constructed element (for a non-empty
///     sequence only);
///   * an enum can only be read through a bounded field
///     (u8(V, Last, Why)), which refuses a value past Last.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SUPPORT_SERIALIZE_H
#define LBP_SUPPORT_SERIALIZE_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace lbp {

/// Element descriptions for sequences of plain integers.
inline constexpr auto AsU32 = [](auto &A, auto &V) { A.u32(V); };
inline constexpr auto AsU64 = [](auto &A, auto &V) { A.u64(V); };

namespace detail {

/// A sequence element is a record, or a unique_ptr owning one (created
/// on read).
template <class T> T &element(T &E) { return E; }
template <class T> T &element(std::unique_ptr<T> &E) {
  if (!E)
    E = std::make_unique<T>();
  return *E;
}
template <class T> const T &element(const std::unique_ptr<T> &E) {
  return *E;
}
template <class Vec>
using ElementOf = std::remove_cvref_t<decltype(element(
    std::declval<typename Vec::value_type &>()))>;

} // namespace detail

/// The writing direction: appends each described field. Bounds, checks
/// and messages are the reader's business and are ignored here.
class ArchiveWriter {
  std::vector<uint8_t> Out;

  template <class T> void le(const T &V, unsigned N) {
    uint64_t X = static_cast<uint64_t>(V);
    for (unsigned I = 0; I != N; ++I)
      Out.push_back(static_cast<uint8_t>(X >> (8 * I)));
  }

public:
  static constexpr bool Loading = false;

  template <class T, class... Bound> void u8(const T &V, const Bound &...) {
    le(V, 1);
  }
  template <class T, class... Bound> void u16(const T &V, const Bound &...) {
    le(V, 2);
  }
  template <class T, class... Bound> void u32(const T &V, const Bound &...) {
    le(V, 4);
  }
  template <class T> void u64(const T &V) { le(V, 8); }

  /// \p N bytes, no length prefix.
  void raw(const void *P, size_t N) {
    const auto *B = static_cast<const uint8_t *>(P);
    Out.insert(Out.end(), B, B + N);
  }
  /// A std::string or byte vector: u64 length, then the bytes.
  template <class Bytes> void bytes(const Bytes &V) {
    u64(V.size());
    raw(V.data(), V.size());
  }

  /// u64 count, then each element through \p Each. The reader refuses a
  /// count above \p Max with \p Why.
  template <class Vec, class Fn>
  void seq(const Vec &V, Fn Each, uint64_t Max = UINT64_MAX,
           const char *Why = nullptr) {
    (void)Max;
    (void)Why;
    u64(V.size());
    for (const auto &E : V)
      Each(*this, detail::element(E));
  }
  /// A sequence whose length the reader already knows: it refuses any
  /// other count with \p Why.
  template <class Vec, class Fn>
  void fixedSeq(const Vec &V, const char *Why, Fn Each) {
    seq(V, Each, V.size(), Why);
  }
  /// A length-prefixed sub-record (a device's state): the reader gives
  /// \p F its own archive over exactly those bytes and fails with \p Why
  /// if that archive fails.
  template <class Fn> void nested(Fn F, const char *Why) {
    (void)Why;
    ArchiveWriter Sub;
    F(Sub);
    bytes(Sub.buffer());
  }

  /// A constant the reader must find: a magic number, a digest, a count
  /// both sides fix.
  template <class T> void expect(T Want, const char *Why) {
    (void)Why;
    le(Want, sizeof(T));
  }
  /// Closes the record with \p Trailer; the reader also requires that
  /// nothing follows.
  void finish(uint32_t Trailer, const char *Why) { expect(Trailer, Why); }

  bool check(bool, const char *) { return true; }
  void fail(const std::string &) {}
  bool ok() const { return true; }

  size_t size() const { return Out.size(); }
  const std::vector<uint8_t> &buffer() const { return Out; }
  std::vector<uint8_t> take() { return std::move(Out); }
};

/// The reading direction: parses what an ArchiveWriter wrote through the
/// same description, refusing hostile input (see the file comment).
class ArchiveReader {
  const uint8_t *P;
  const uint8_t *End;
  bool Failed = false;
  std::string Err;

  bool take(size_t N) {
    if (Failed || static_cast<size_t>(End - P) < N) {
      Failed = true;
      return false;
    }
    return true;
  }
  uint64_t le(unsigned N) {
    if (!take(N))
      return 0;
    uint64_t X = 0;
    for (unsigned I = 0; I != N; ++I)
      X |= static_cast<uint64_t>(P[I]) << (8 * I);
    P += N;
    return X;
  }
  template <class T> void get(T &V, unsigned N) {
    static_assert(!std::is_enum_v<T>, "read an enum through a bounded field");
    V = static_cast<T>(le(N));
  }
  template <class T> void get(T &V, unsigned N, T Last, const char *Why) {
    uint64_t X = le(N);
    if (check(X <= static_cast<uint64_t>(Last), Why))
      V = static_cast<T>(X);
  }

  bool fits(uint64_t N, size_t MinBytes) {
    return check(N <= remaining() / MinBytes,
                 "element count runs past the end of the input");
  }

  [[gnu::cold]] void refuse(const char *Why) {
    if (!Failed)
      fail(Why);
  }

  /// Bytes of the smallest encoding of \p Elem (at least 1).
  template <class Elem, class Fn> static size_t minBytes(Fn Each) {
    ArchiveWriter W;
    const Elem Default{};
    Each(W, Default);
    return W.size() != 0 ? W.size() : 1;
  }

public:
  static constexpr bool Loading = true;

  ArchiveReader(const uint8_t *Data, size_t Size)
      : P(Data), End(Data + Size) {}
  explicit ArchiveReader(const std::vector<uint8_t> &V)
      : ArchiveReader(V.data(), V.size()) {}

  template <class T> void u8(T &V) { get(V, 1); }
  template <class T> void u16(T &V) { get(V, 2); }
  template <class T> void u32(T &V) { get(V, 4); }
  template <class T> void u64(T &V) { get(V, 8); }
  /// Bounded fields: a value past \p Last fails the read with \p Why and
  /// leaves \p V alone.
  template <class T>
  void u8(T &V, std::type_identity_t<T> Last, const char *Why) {
    get(V, 1, Last, Why);
  }
  template <class T>
  void u16(T &V, std::type_identity_t<T> Last, const char *Why) {
    get(V, 2, Last, Why);
  }
  template <class T>
  void u32(T &V, std::type_identity_t<T> Last, const char *Why) {
    get(V, 4, Last, Why);
  }

  void raw(void *Out, size_t N) {
    if (take(N) && N != 0) {
      std::memcpy(Out, P, N);
      P += N;
    }
  }
  template <class Bytes> void bytes(Bytes &V) {
    V.resize(count(1));
    raw(V.data(), V.size());
  }

  /// Reads a u64 element count and accepts it only if it is at most
  /// \p Max (else fails with \p Why) and \p MinBytes per element fit in
  /// the bytes left. Returns 0 once the reader has failed.
  uint64_t count(size_t MinBytes, uint64_t Max = UINT64_MAX,
                 const char *Why = nullptr) {
    uint64_t N = le(8);
    if (!check(N <= Max, Why) || !fits(N, MinBytes))
      return 0;
    return N;
  }

  template <class Vec, class Fn>
  void seq(Vec &V, Fn Each, uint64_t Max = UINT64_MAX,
           const char *Why = nullptr) {
    V.clear();
    // Most of a checkpoint's sequences are empty; only a non-empty one
    // needs its element's smallest encoding measured.
    uint64_t N = count(1, Max, Why);
    if (N != 0 && fits(N, minBytes<detail::ElementOf<Vec>>(Each)))
      V.resize(N);
    for (auto &E : V)
      Each(*this, detail::element(E));
  }
  template <class Vec, class Fn>
  void fixedSeq(Vec &V, const char *Why, Fn Each) {
    if (check(le(8) == V.size(), Why))
      for (auto &E : V)
        Each(*this, E);
  }
  template <class Fn> void nested(Fn F, const char *Why) {
    std::vector<uint8_t> Blob;
    bytes(Blob);
    ArchiveReader Sub(Blob);
    F(Sub);
    check(Sub.ok(), Why);
  }

  template <class T> void expect(T Want, const char *Why) {
    check(le(sizeof(T)) == static_cast<uint64_t>(Want), Why);
  }
  void finish(uint32_t Trailer, const char *Why) {
    expect(Trailer, Why);
    check(remaining() == 0, Why);
  }

  /// Fails with \p Why unless \p Cond holds; true while the reader is
  /// good. Inlined at every field; its failing branch, refuse(), stays
  /// out of line.
  bool check(bool Cond, const char *Why) {
    if (!Cond)
      refuse(Why);
    return !Failed;
  }
  /// Fails the reader with \p Why, or gives that name to an underrun
  /// that has none yet.
  void fail(const std::string &Why) {
    if (!Failed || Err.empty())
      Err = Why;
    Failed = true;
  }

  bool ok() const { return !Failed; }
  /// Why the read failed; empty when the input simply ran out.
  const std::string &error() const { return Err; }
  size_t remaining() const { return static_cast<size_t>(End - P); }
};

} // namespace lbp

#endif // LBP_SUPPORT_SERIALIZE_H
