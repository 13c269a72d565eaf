// One codec sweep over every NFS procedure's argument and result types (the
// rows of kNfsProcTable) plus the MOUNT, recall and void bodies. Each type is
// filled from seeds through its own field list; results are swept in both
// status arms. For every sample the encoded size equals wire_size(), decode
// consumes every byte and re-encodes to the same bytes, every strict prefix
// fails with kBadXdr, and seeded single-bit flips decode or fail without
// crashing (the sanitizer jobs run this binary).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "nfs/nfs_types.h"

namespace gvfs::nfs {
namespace {

static_assert(Fh::wire_size() == 20);
static_assert(Fattr::wire_size() == 84);

// A fourth visitor over the field lists: assigns seeded values. Status words
// take the arm under test; other words stay small so payloads (sized by a
// count word) keep each sample to a few hundred bytes.
class Filler : public xdr::Visitor<Filler> {
 public:
  Filler(u64 seed, bool ok_arm) : rng_(seed), ok_arm_(ok_arm) {}

  template <class T>
  void word(T& v) {
    if constexpr (std::is_same_v<T, NfsStat>) {
      v = ok_arm_ ? NfsStat::kOk : NfsStat::kNoEnt;
    } else {
      v = static_cast<T>(rng_.next_below(64));
    }
  }
  template <class T>
  void hyper(T& v) { v = static_cast<T>(rng_.next() >> 1); }
  void boolean(bool& b) { b = rng_.next_below(2) == 1; }
  void string(std::string& s) {
    s.assign(rng_.next_below(8), static_cast<char>('a' + rng_.next_below(26)));
  }
  template <class E>
  void list(std::vector<E>& v) {
    v.resize(rng_.next_below(4));
    for (E& e : v) (*this)(e);
  }
  void payload(blob::BlobRef& b, u32 count) {
    std::vector<u8> bytes(count);
    for (u8& x : bytes) x = static_cast<u8>(rng_.next());
    b = blob::make_bytes(std::move(bytes));
  }
  void time(SimTime& t) {
    t = static_cast<SimTime>(rng_.next_below(u64{1} << 32)) * kSecond +
        static_cast<SimTime>(rng_.next_below(kSecond));
  }
  template <class V, class F>
  void optional(std::optional<V>& o, F fn) {
    if (rng_.next_below(2) == 1) {
      fn(o.emplace(), *this);
    } else {
      o.reset();
    }
  }
  void skip_word(u32) {}
  void skip_hyper(u64) {}
  void expect_word(u32) {}
  void flag(bool& b, u32) { boolean(b); }

 private:
  SplitMix64 rng_;
  bool ok_arm_;
};

std::vector<u8> encode_bytes(const rpc::Message& m) {
  xdr::XdrEncoder enc;
  m.encode(enc);
  EXPECT_EQ(enc.size(), m.wire_size());
  return enc.take();
}

template <class T>
void sweep_one(const char* what, u64 seed, bool ok_arm) {
  SCOPED_TRACE(std::string(what) + " seed " + std::to_string(seed) +
               (ok_arm ? " ok arm" : " error arm"));
  T msg;
  Filler fill(seed, ok_arm);
  fill(msg);
  const std::vector<u8> bytes = encode_bytes(msg);

  xdr::XdrDecoder dec(bytes);
  auto back = T::decode(dec);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(dec.fully_consumed());
  EXPECT_EQ(encode_bytes(*back), bytes);

  for (std::size_t n = 0; n < bytes.size(); ++n) {
    xdr::XdrDecoder prefix(std::span<const u8>(bytes.data(), n));
    auto cut = T::decode(prefix);
    ASSERT_FALSE(cut.is_ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(cut.status().code(), ErrCode::kBadXdr);
  }

  if (bytes.empty()) return;
  SplitMix64 flips(seed ^ 0xf11b);
  for (int i = 0; i < 1000; ++i) {
    std::vector<u8> bent = bytes;
    u64 bit = flips.next_below(bytes.size() * 8);
    bent[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    xdr::XdrDecoder bdec(bent);
    auto got = T::decode(bdec);
    if (got.is_ok()) encode_bytes(*got);  // whatever decodes, re-encodes
  }
}

template <class T>
void sweep(const char* what) {
  constexpr bool has_status = requires(T t) { t.status; };
  for (u64 seed = 1; seed <= 3; ++seed) {
    sweep_one<T>(what, seed, /*ok_arm=*/true);
    if constexpr (has_status) sweep_one<T>(what, seed, /*ok_arm=*/false);
  }
}

TEST(CodecSweep, EveryProcedureArgsAndResults) {
  std::set<std::string> names;
  std::apply(
      [&](const auto&... row) {
        auto one = [&](const auto& r) {
          using Row = std::remove_cvref_t<decltype(r)>;
          EXPECT_STREQ(proc_name(r.proc), r.name);
          names.insert(r.name);
          sweep<typename Row::Args>(r.name);
          sweep<typename Row::Res>(r.name);
        };
        (one(row), ...);
      },
      kNfsProcTable);
  EXPECT_EQ(names.size(), std::tuple_size_v<decltype(kNfsProcTable)>);
}

TEST(CodecSweep, MountRecallAndVoidBodies) {
  sweep<MountArgs>("MountArgs");
  sweep<MountRes>("MountRes");
  sweep<RecallArgs>("RecallArgs");
  sweep<RecallRes>("RecallRes");
  sweep<VoidMsg>("VoidMsg");
}

}  // namespace
}  // namespace gvfs::nfs
