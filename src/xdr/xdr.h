// XDR (RFC 1014) encoding: big-endian, 4-byte aligned primitives — the wire
// format beneath ONC RPC and NFS.
//
// Each protocol type states its layout once, as a field list
//
//   static constexpr void fields(auto& self, auto& io) {
//     io(self.status);
//     if (self.status == NfsStat::kOk) io(self.attr);
//   }
//
// naming its fields in wire order: rpcgen's xdr_<type>() shape, one routine
// whose stream decides the direction. Three visitors walk that list: Sizer
// counts the encoded bytes and allocates nothing (the simulation transport
// charges links with it instead of encoding), Writer appends to an
// XdrEncoder, and Reader fills `self` from an XdrDecoder. A branch or loop
// may test any field listed before it, because the Reader has decoded that
// field by then. size_of(), encode() and decode() below are the entry points.
//
// The encoder is scatter-gather: primitives and small fields accumulate in
// an owned buffer, while bulk payloads (READ/WRITE block data) are borrowed
// by reference — a span plus an ownership handle, or a BlobRef — and only
// materialized if someone asks for the flat wire image. The decoder can
// likewise hand out views and blob references into its backing buffer, so a
// 32 KiB block payload crosses the codec in both directions without being
// copied.
#pragma once

#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "blob/blob.h"
#include "common/status.h"
#include "common/types.h"

namespace gvfs::xdr {

class XdrEncoder {
 public:
  void put_u32(u32 v);
  void put_i32(i32 v) { put_u32(static_cast<u32>(v)); }
  void put_u64(u64 v);
  void put_bool(bool v) { put_u32(v ? 1 : 0); }
  // Variable-length opaque: length word + data + pad to 4. Copies.
  void put_opaque(std::span<const u8> data);
  // Fixed-length opaque: data + pad to 4 (length known from protocol). Copies.
  void put_opaque_fixed(std::span<const u8> data);
  void put_string(std::string_view s);

  // Zero-copy variants: borrow the caller's bytes instead of copying them.
  // `owner`, when non-null, keeps the bytes alive for the encoder's lifetime;
  // when null the caller guarantees the span outlives the encoder.
  void put_opaque_view(std::span<const u8> data,
                       std::shared_ptr<const void> owner = nullptr);
  void put_opaque_fixed_view(std::span<const u8> data,
                             std::shared_ptr<const void> owner = nullptr);
  // Variable-length opaque whose payload is blob bytes [offset, offset+len).
  // The blob is not read unless the flat wire image is materialized.
  void put_blob(blob::BlobRef b, u64 offset, u64 len);
  void put_blob(blob::BlobRef b) {
    u64 n = b->size();
    put_blob(std::move(b), 0, n);
  }

  // Logical encoded size in bytes (includes borrowed segments).
  [[nodiscard]] std::size_t size() const { return size_; }
  // Number of borrowed (not yet materialized) segments.
  [[nodiscard]] std::size_t segment_count() const { return borrows_.size(); }

  // Flat wire image. When nothing was borrowed these are free; otherwise the
  // first call gathers borrowed segments into an internal buffer (cached
  // until the next mutation).
  [[nodiscard]] std::span<const u8> bytes() const;
  std::vector<u8> take();
  // Gather the wire image into caller-provided storage (size() bytes).
  void copy_to(std::span<u8> out) const;

 private:
  struct Borrow {
    std::size_t owned_prefix;  // bytes of owned_ emitted before this segment
    u64 len;
    std::span<const u8> view;            // used when blob == nullptr
    std::shared_ptr<const void> owner;   // keeps `view` alive (may be null)
    blob::BlobRef blob;                  // when set: blob bytes [off, off+len)
    u64 blob_off = 0;
  };

  void pad_();
  void dirty_() { flat_valid_ = false; }
  void gather_(std::span<u8> out) const;
  const std::vector<u8>& flat_() const;

  std::vector<u8> owned_;
  std::vector<Borrow> borrows_;
  std::size_t size_ = 0;
  mutable std::vector<u8> flat_cache_;
  mutable bool flat_valid_ = false;
};

// Decoder with a sticky fail bit: getters return a default on failure and
// the caller checks status() once at the end of the message.
//
// Constructed from a bare span it behaves as before (views returned by the
// *_view getters are valid only while the buffer lives). Constructed with a
// backing handle, get_opaque_blob() can return zero-copy ViewBlobs that
// share ownership of the receive buffer.
class XdrDecoder {
 public:
  explicit XdrDecoder(std::span<const u8> data) : data_(data) {}
  XdrDecoder(std::span<const u8> data, std::shared_ptr<const void> backing)
      : data_(data), backing_(std::move(backing)) {}
  explicit XdrDecoder(std::shared_ptr<const std::vector<u8>> backing)
      : data_(*backing), backing_(std::move(backing)) {}

  u32 get_u32();
  i32 get_i32() { return static_cast<i32>(get_u32()); }
  u64 get_u64();
  bool get_bool() { return get_u32() != 0; }
  std::vector<u8> get_opaque();                  // variable-length
  std::vector<u8> get_opaque_fixed(std::size_t n);
  std::string get_string();

  // Zero-copy getters: views into the decode buffer (no copy, no alloc).
  std::span<const u8> get_opaque_view();
  std::span<const u8> get_opaque_fixed_view(std::size_t n);
  // Variable-length opaque as a blob. All-zero payloads collapse to the
  // shared zero blob; otherwise, with a backing handle, the payload is
  // wrapped as a ViewBlob (zero copy), else copied into a BytesBlob.
  blob::BlobRef get_opaque_blob();

  [[nodiscard]] bool ok() const { return ok_; }
  // Mark the input malformed (a field decoded to a value it may not take).
  void fail() { ok_ = false; }
  [[nodiscard]] Status status() const {
    return ok_ ? Status::ok() : err(ErrCode::kBadXdr, "short or malformed XDR");
  }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool fully_consumed() const { return ok_ && pos_ == data_.size(); }

 private:
  bool need_(std::size_t n);
  void skip_pad_(std::size_t n);

  std::span<const u8> data_;
  std::shared_ptr<const void> backing_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Analytic size helpers (bytes on the wire).
constexpr u64 size_u32() { return 4; }
constexpr u64 pad4(u64 n) { return (n + 3) & ~u64{3}; }
constexpr u64 size_opaque(u64 n) { return 4 + pad4(n); }
constexpr u64 size_string(u64 n) { return 4 + pad4(n); }

// ------------------------------------------------------------ field lists --
//
// A field list calls `io(a, b, ...)` to visit fields by their C++ type: bool
// as a bool word, 4-byte integers and enums as a word, 8-byte ones as a
// hyper, std::string as a string, std::vector<E> as an XDR linked list
// ((true, E)* false) and any other type through its own field list. Fields
// whose wire form the type does not tell are named explicitly:
//   io.payload(blob, count)  opaque<> of `count` bytes held in a BlobRef
//   io.time(t)               SimTime as (seconds, nanoseconds) words
//   io.optional(o, fn)       bool, then fn(*o, io) when present
//   io.skip_word/hyper(v)    a field the model does not keep: written as v,
//                            read and discarded
//   io.expect_word(v)        written as v; any other value fails decoding
//   io.flag(b, on)           bool carried as a word that is `on` when true
//                            and 0 when false; decodes true only for `on`
// Every visitor derives Visitor<Self> and supplies those plus the typed
// primitives word, hyper, boolean, string and list.

template <class T>
inline constexpr bool kIsVector = false;
template <class E>
inline constexpr bool kIsVector<std::vector<E>> = true;

template <class Io>
class Visitor {
 public:
  template <class... T>
  constexpr void operator()(T&... v) { (visit_(v), ...); }

 private:
  template <class T>
  constexpr void visit_(T& v) {
    using U = std::remove_const_t<T>;
    Io& io = static_cast<Io&>(*this);
    if constexpr (std::is_same_v<U, bool>) {
      io.boolean(v);
    } else if constexpr (std::is_integral_v<U> || std::is_enum_v<U>) {
      static_assert(sizeof(U) == 4 || sizeof(U) == 8, "XDR has no narrower integer");
      if constexpr (sizeof(U) == 8) {
        io.hyper(v);
      } else {
        io.word(v);
      }
    } else if constexpr (std::is_same_v<U, std::string>) {
      io.string(v);
    } else if constexpr (kIsVector<U>) {
      io.list(v);
    } else {
      U::fields(v, io);
    }
  }
};

// Counts the encoded bytes; allocates nothing.
class Sizer : public Visitor<Sizer> {
 public:
  [[nodiscard]] constexpr u64 bytes() const { return n_; }

  constexpr void word(const auto&) { n_ += 4; }
  constexpr void hyper(const auto&) { n_ += 8; }
  constexpr void boolean(bool) { n_ += 4; }
  constexpr void string(const std::string& s) { n_ += size_string(s.size()); }
  template <class E>
  constexpr void list(const std::vector<E>& v) {
    for (const E& e : v) {
      n_ += 4;
      (*this)(e);
    }
    n_ += 4;
  }
  constexpr void payload(const blob::BlobRef&, u32 count) { n_ += size_opaque(count); }
  constexpr void time(SimTime) { n_ += 8; }
  template <class V, class F>
  constexpr void optional(const std::optional<V>& o, F fn) {
    n_ += 4;
    if (o) fn(*o, *this);
  }
  constexpr void skip_word(u32) { n_ += 4; }
  constexpr void skip_hyper(u64) { n_ += 8; }
  constexpr void expect_word(u32) { n_ += 4; }
  constexpr void flag(bool, u32) { n_ += 4; }

 private:
  u64 n_ = 0;
};

class Writer : public Visitor<Writer> {
 public:
  explicit Writer(XdrEncoder& enc) : enc_(enc) {}

  void word(const auto& v) { enc_.put_u32(static_cast<u32>(v)); }
  void hyper(const auto& v) { enc_.put_u64(static_cast<u64>(v)); }
  void boolean(bool b) { enc_.put_bool(b); }
  void string(const std::string& s) { enc_.put_string(s); }
  template <class E>
  void list(const std::vector<E>& v) {
    for (const E& e : v) {
      enc_.put_bool(true);
      (*this)(e);
    }
    enc_.put_bool(false);
  }
  // By reference: the blob is read only if the flat wire image is
  // materialized. A null blob stands for `count` zero bytes.
  void payload(const blob::BlobRef& b, u32 count) {
    enc_.put_blob(b ? b : blob::zero_ref(count), 0, count);
  }
  void time(SimTime t) {
    enc_.put_u32(static_cast<u32>(t / kSecond));
    enc_.put_u32(static_cast<u32>(t % kSecond));
  }
  template <class V, class F>
  void optional(const std::optional<V>& o, F fn) {
    enc_.put_bool(o.has_value());
    if (o) fn(*o, *this);
  }
  void skip_word(u32 v) { enc_.put_u32(v); }
  void skip_hyper(u64 v) { enc_.put_u64(v); }
  void expect_word(u32 v) { enc_.put_u32(v); }
  void flag(bool b, u32 on) { enc_.put_u32(b ? on : 0); }

 private:
  XdrEncoder& enc_;
};

class Reader : public Visitor<Reader> {
 public:
  explicit Reader(XdrDecoder& dec) : dec_(dec) {}

  template <class T>
  void word(T& v) { v = static_cast<T>(dec_.get_u32()); }
  template <class T>
  void hyper(T& v) { v = static_cast<T>(dec_.get_u64()); }
  void boolean(bool& b) { b = dec_.get_bool(); }
  void string(std::string& s) { s = dec_.get_string(); }
  // Each entry costs at least one word of input, so a hostile list ends
  // when the input does.
  template <class E>
  void list(std::vector<E>& v) {
    while (dec_.get_bool()) (*this)(v.emplace_back());
  }
  void payload(blob::BlobRef& b, u32 count) {
    b = dec_.get_opaque_blob();
    if (dec_.ok() && b->size() != count) dec_.fail();
  }
  void time(SimTime& t) {
    u64 sec = dec_.get_u32();
    u64 nsec = dec_.get_u32();
    t = static_cast<SimTime>(sec * kSecond + nsec);
  }
  template <class V, class F>
  void optional(std::optional<V>& o, F fn) {
    if (dec_.get_bool()) fn(o.emplace(), *this);
  }
  void skip_word(u32) { dec_.get_u32(); }
  void skip_hyper(u64) { dec_.get_u64(); }
  void expect_word(u32 v) {
    if (dec_.get_u32() != v) dec_.fail();
  }
  void flag(bool& b, u32 on) { b = dec_.get_u32() == on; }

 private:
  XdrDecoder& dec_;
};

template <class T>
constexpr u64 size_of(const T& v) {
  Sizer s;
  s(v);
  return s.bytes();
}

template <class T>
void encode(const T& v, XdrEncoder& enc) {
  Writer w(enc);
  w(v);
}

// Decodes one T; the decoder may hold more input after it.
template <class T>
Result<T> decode(XdrDecoder& dec) {
  T v;
  Reader r(dec);
  r(v);
  if (!dec.ok()) return dec.status();
  return v;
}

}  // namespace gvfs::xdr
