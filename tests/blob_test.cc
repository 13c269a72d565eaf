// Tests for lazy content blobs and the sparse extent store, including the
// copy-on-write snapshot semantics the whole zero-copy data path rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "blob/blob.h"
#include "blob/extent_store.h"
#include "common/rng.h"

namespace gvfs::blob {
namespace {

std::vector<u8> materialize(const Blob& b, u64 off, u64 len) {
  std::vector<u8> out(len);
  b.read(off, out);
  return out;
}

TEST(BytesBlob, ReadBack) {
  std::vector<u8> data{1, 2, 3, 4, 5};
  BytesBlob b(data);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(materialize(b, 1, 3), (std::vector<u8>{2, 3, 4}));
}

TEST(BytesBlob, ZeroRange) {
  std::vector<u8> data(100, 0);
  data[50] = 7;
  BytesBlob b(data);
  EXPECT_TRUE(b.is_zero_range(0, 50));
  EXPECT_FALSE(b.is_zero_range(0, 51));
  EXPECT_TRUE(b.is_zero_range(51, 49));
}

TEST(BytesBlob, CompressedSizeReflectsContent) {
  std::vector<u8> zeros(16_KiB, 0);
  std::vector<u8> uniform(16_KiB, 42);
  std::vector<u8> noisy(16_KiB);
  for (std::size_t i = 0; i < noisy.size(); ++i) noisy[i] = static_cast<u8>(i * 31);
  u64 cz = BytesBlob(zeros).compressed_size(0, 16_KiB);
  u64 cu = BytesBlob(uniform).compressed_size(0, 16_KiB);
  u64 cn = BytesBlob(noisy).compressed_size(0, 16_KiB);
  EXPECT_LT(cz, 256u);
  EXPECT_LT(cu, cn);
  EXPECT_LE(cn, 17_KiB);
}

TEST(ZeroBlob, AllZero) {
  ZeroBlob z(1_MiB);
  EXPECT_EQ(z.size(), 1_MiB);
  EXPECT_TRUE(z.is_zero_range(0, 1_MiB));
  auto bytes = materialize(z, 12345, 100);
  EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(), [](u8 v) { return v == 0; }));
  EXPECT_LT(z.compressed_size(), 2_KiB);
}

TEST(SyntheticBlob, DeterministicContent) {
  SyntheticBlob a(7, 1_MiB, 0.5, 2.0);
  SyntheticBlob b(7, 1_MiB, 0.5, 2.0);
  EXPECT_EQ(materialize(a, 100_KiB, 256), materialize(b, 100_KiB, 256));
  EXPECT_EQ(content_hash(a), content_hash(b));
  SyntheticBlob c(8, 1_MiB, 0.5, 2.0);
  EXPECT_NE(content_hash(a), content_hash(c));
}

TEST(SyntheticBlob, ZeroFractionApproximatelyHonored) {
  // Zero-ness is decided per 16-page run, so use a large blob to tighten the
  // sample error around the configured fraction.
  SyntheticBlob b(3, 128_MiB, 0.92, 3.0);
  u64 zero_pages = 0, pages = 128_MiB / kPage;
  for (u64 p = 0; p < pages; ++p) {
    if (b.page_is_zero(p)) ++zero_pages;
  }
  double frac = static_cast<double>(zero_pages) / static_cast<double>(pages);
  EXPECT_NEAR(frac, 0.92, 0.02);
}

TEST(SyntheticBlob, ZeroPagesReadAsZero) {
  SyntheticBlob b(3, 1_MiB, 0.5, 2.0);
  for (u64 p = 0; p < 1_MiB / kPage; ++p) {
    auto bytes = materialize(b, p * kPage, kPage);
    bool all_zero = std::all_of(bytes.begin(), bytes.end(), [](u8 v) { return v == 0; });
    EXPECT_EQ(all_zero, b.page_is_zero(p));
    EXPECT_EQ(b.is_zero_range(p * kPage, kPage), all_zero);
  }
}

TEST(SyntheticBlob, CompressedSizeTracksZeroFraction) {
  SyntheticBlob mostly_zero(1, 8_MiB, 0.92, 3.0);
  SyntheticBlob half_zero(1, 8_MiB, 0.5, 3.0);
  EXPECT_LT(mostly_zero.compressed_size(), half_zero.compressed_size());
  // ~8% nonzero at ratio 3 => ~2.7% of size plus epsilon.
  EXPECT_LT(mostly_zero.compressed_size(), 8_MiB / 20);
}

TEST(SliceBlob, WindowsIntoBase) {
  std::vector<u8> data(256);
  std::iota(data.begin(), data.end(), 0);
  auto base = make_bytes(std::move(data));
  SliceBlob s(base, 10, 50);
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(materialize(s, 0, 3), (std::vector<u8>{10, 11, 12}));
  EXPECT_EQ(materialize(s, 47, 3), (std::vector<u8>{57, 58, 59}));
}

TEST(RangeHash, MatchesConcatenation) {
  auto b = make_synthetic(9, 256_KiB, 0.3, 2.0);
  // Hash over the whole range equals hashing in one go (chunked internally).
  EXPECT_EQ(range_hash(*b, 0, b->size()), content_hash(*b));
}

// ---------------------------------------------------------- ExtentStore ----

TEST(ExtentStore, EmptyReadsZero) {
  ExtentStore es;
  es.truncate(100);
  EXPECT_EQ(es.size(), 100u);
  std::vector<u8> buf(100, 0xff);
  es.read(0, buf);
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(), [](u8 v) { return v == 0; }));
}

TEST(ExtentStore, WriteAndReadBack) {
  ExtentStore es;
  es.write(10, std::vector<u8>{1, 2, 3});
  EXPECT_EQ(es.size(), 13u);
  std::vector<u8> buf(13);
  es.read(0, buf);
  EXPECT_EQ(buf[9], 0);
  EXPECT_EQ(buf[10], 1);
  EXPECT_EQ(buf[12], 3);
}

TEST(ExtentStore, OverlappingWritesLastWins) {
  ExtentStore es;
  es.write(0, std::vector<u8>(10, 0xaa));
  es.write(3, std::vector<u8>(4, 0xbb));
  std::vector<u8> buf(10);
  es.read(0, buf);
  EXPECT_EQ(buf, (std::vector<u8>{0xaa, 0xaa, 0xaa, 0xbb, 0xbb, 0xbb, 0xbb, 0xaa, 0xaa, 0xaa}));
  EXPECT_EQ(es.extent_count(), 3u);  // left remainder, new, right remainder
}

TEST(ExtentStore, WriteSpanningMultipleExtents) {
  ExtentStore es;
  es.write(0, std::vector<u8>(4, 1));
  es.write(8, std::vector<u8>(4, 2));
  es.write(2, std::vector<u8>(8, 3));  // covers tail of first, hole, head of second
  std::vector<u8> buf(12);
  es.read(0, buf);
  EXPECT_EQ(buf, (std::vector<u8>{1, 1, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2}));
}

TEST(ExtentStore, WriteBlobNoMaterialization) {
  ExtentStore es;
  auto big = make_synthetic(5, 512_MiB, 0.9, 3.0);
  es.write_blob(0, big, 0, big->size());
  EXPECT_EQ(es.size(), 512_MiB);
  EXPECT_EQ(es.materialized_bytes(), 0u);  // the point of the design
  std::vector<u8> probe(64);
  es.read(100_MiB, probe);
  std::vector<u8> expect(64);
  big->read(100_MiB, expect);
  EXPECT_EQ(probe, expect);
}

TEST(ExtentStore, TruncateShrinkDropsData) {
  ExtentStore es;
  es.write(0, std::vector<u8>(100, 7));
  es.truncate(40);
  EXPECT_EQ(es.size(), 40u);
  es.truncate(100);  // grow again: hole reads zero
  std::vector<u8> buf(100);
  es.read(0, buf);
  EXPECT_EQ(buf[39], 7);
  EXPECT_EQ(buf[40], 0);
}

TEST(ExtentStore, IsZeroRangeAcrossHolesAndExtents) {
  ExtentStore es;
  es.truncate(1000);
  es.write(100, std::vector<u8>(10, 0));   // explicit zeros
  es.write(500, std::vector<u8>(10, 9));
  EXPECT_TRUE(es.is_zero_range(0, 500));
  EXPECT_FALSE(es.is_zero_range(0, 510));
  EXPECT_TRUE(es.is_zero_range(510, 490));
}

TEST(ExtentStore, SnapshotIsImmutable) {
  ExtentStore es;
  es.write(0, std::vector<u8>{1, 2, 3, 4});
  BlobRef snap = es.snapshot();
  es.write(1, std::vector<u8>{9, 9});
  EXPECT_EQ(materialize(*snap, 0, 4), (std::vector<u8>{1, 2, 3, 4}));
  std::vector<u8> now(4);
  es.read(0, now);
  EXPECT_EQ(now, (std::vector<u8>{1, 9, 9, 4}));
}

TEST(ExtentStore, SnapshotZeroAndCompression) {
  ExtentStore es;
  es.truncate(100_KiB);
  es.write_blob(0, make_zero(50_KiB), 0, 50_KiB);
  BlobRef snap = es.snapshot();
  EXPECT_TRUE(snap->is_zero_range(0, 100_KiB));
  EXPECT_LT(snap->compressed_size(0, 100_KiB), 1_KiB);
}

TEST(ExtentStore, ResetReplacesContent) {
  ExtentStore es;
  es.write(0, std::vector<u8>(10, 1));
  es.reset(make_zero(5));
  EXPECT_EQ(es.size(), 5u);
  EXPECT_TRUE(es.is_zero_range(0, 5));
}

// Property: a randomized sequence of writes matches a reference vector model.
TEST(ExtentStoreProperty, RandomOpsMatchReference) {
  for (u64 seed = 1; seed <= 5; ++seed) {
    ExtentStore es;
    std::vector<u8> ref(4096, 0);
    SplitMix64 rng(seed);
    for (int op = 0; op < 300; ++op) {
      u64 off = rng.next_below(4000);
      u64 len = 1 + rng.next_below(96);
      u8 fill = static_cast<u8>(rng.next());
      std::vector<u8> data(len, fill);
      es.write(off, data);
      std::copy(data.begin(), data.end(), ref.begin() + static_cast<long>(off));
      if (op % 37 == 0) {
        u64 cut = rng.next_below(4096);
        es.truncate(cut);
        std::fill(ref.begin() + static_cast<long>(cut), ref.end(), 0);
        es.truncate(4096);
      }
    }
    es.truncate(4096);
    std::vector<u8> got(4096);
    es.read(0, got);
    EXPECT_EQ(got, ref) << "seed " << seed;
  }
}

// Property: an ordered-pieces blob reads, zero-tests, compresses and
// fingerprints every range exactly as the ExtentStore that the same pieces
// were appended to, and as that store's snapshot.
TEST(Pieces, MatchExtentStoreOverRandomRanges) {
  std::vector<u8> raw(64_KiB);
  for (u64 i = 0; i < raw.size(); ++i) raw[i] = static_cast<u8>(i * 7 % 251);
  raw[5000] = 0;
  std::fill(raw.begin() + 20000, raw.begin() + 36000, u8{0});
  const std::vector<BlobRef> sources = {
      make_synthetic(3, 1_MiB, 0.5, 2.5), make_zero(256_KiB), make_bytes(raw),
      std::make_shared<SliceBlob>(make_synthetic(4, 1_MiB, 0.3, 3.0), 40_KiB, 512_KiB)};
  for (u64 seed = 1; seed <= 6; ++seed) {
    SplitMix64 rng(seed);
    std::vector<Piece> pieces;
    ExtentStore store;
    u64 pos = 0;
    const u64 count = 1 + rng.next_below(120);
    for (u64 i = 0; i < count; ++i) {
      pos += rng.next_below(3) == 0 ? rng.next_below(6_KiB) : 0;  // a hole, or none
      const BlobRef& src = sources[rng.next_below(sources.size())];
      u64 len = 1 + rng.next_below(std::min<u64>(12_KiB, src->size()));
      u64 src_off = rng.next_below(src->size() - len + 1);
      pieces.push_back({pos, len, src, src_off});
      store.write_blob(pos, src, src_off, len);
      pos += len;
    }
    const u64 size = pos + rng.next_below(5_KiB);
    store.truncate(size);
    const BlobRef blob = make_pieces(pieces, size);
    const BlobRef snap = store.snapshot();
    ASSERT_EQ(blob->size(), size);
    for (int r = 0; r < 150; ++r) {
      u64 off = rng.next_below(size);
      u64 len = 1 + rng.next_below(size - off);
      if (rng.next_below(2) == 0) len = std::min<u64>(len, 1 + rng.next_below(9_KiB));
      std::vector<u8> want(len);
      store.read(off, want);
      EXPECT_EQ(materialize(*blob, off, len), want) << "seed " << seed << " range " << r;
      EXPECT_EQ(blob->is_zero_range(off, len), store.is_zero_range(off, len)) << "seed " << seed;
      EXPECT_EQ(blob->compressed_size(off, len), store.compressed_size(off, len))
          << "seed " << seed;
      EXPECT_EQ(blob->fingerprint(kDefaultFingerprintSeed, off, len),
                fnv1a64(want, fingerprint_init(kDefaultFingerprintSeed)))
          << "seed " << seed;
      EXPECT_EQ(blob->fingerprint(7, off, len), snap->fingerprint(7, off, len))
          << "seed " << seed;
      EXPECT_EQ(blob->compressed_size(off, len), snap->compressed_size(off, len));
    }
    // Ranges that start or end exactly on a piece's edge.
    for (const Piece& pc : pieces) {
      for (u64 off : {pc.start, pc.start + pc.len}) {
        u64 len = std::min<u64>(3_KiB, size - off);
        if (len == 0) continue;
        EXPECT_EQ(blob->compressed_size(off, len), store.compressed_size(off, len));
        EXPECT_EQ(blob->compressed_size(0, off + len), store.compressed_size(0, off + len));
        EXPECT_EQ(blob->is_zero_range(off, len), store.is_zero_range(off, len));
      }
    }
    EXPECT_EQ(blob->compressed_size(), store.compressed_size());
  }
}

TEST(BlobTeardown, DeepSliceChainDestructsIteratively) {
  // Regression: a long write/suspend session builds a SliceBlob-over-snapshot
  // chain one link per buffered write; dropping the head used to recurse one
  // destructor frame per link and blow the 8 MiB stack (interactive_session).
  BlobRef chain = make_zero(kPage);
  ExtentStore store;
  for (int i = 0; i < 200000; ++i) {
    store.reset(chain);
    chain = std::make_shared<SliceBlob>(store.snapshot(), 0, kPage);
  }
  EXPECT_EQ(chain->size(), kPage);
  store.reset(nullptr);
  chain.reset();  // must unwind on a worklist, not the call stack

  // Each link holds its child twice: dropping the first ref frees nothing,
  // and the second, then the last, queues the child.
  BlobRef twice = make_zero(kPage);
  for (int i = 0; i < 200000; ++i) {
    twice = make_pieces({{0, kPage / 2, twice, 0}, {kPage / 2, kPage / 2, twice, kPage / 2}},
                        kPage);
  }
  EXPECT_EQ(twice->size(), kPage);
  twice.reset();

  // Each link's child is also held elsewhere, so dropping a link frees
  // nothing below it until the outside holders go; the last one to go then
  // frees the whole chain at once.
  std::vector<BlobRef> held;
  BlobRef shared = make_zero(kPage);
  for (int i = 0; i < 200000; ++i) {
    held.push_back(shared);
    shared = i % 2 == 0 ? std::make_shared<SliceBlob>(shared, 0, kPage)
                        : make_pieces({{0, kPage, shared, 0}}, kPage);
  }
  shared.reset();
  for (BlobRef& ref : held) ref.reset();
}

// Reference FNV-1a over a byte range, seeded the fingerprint way.
u64 byte_exact_fp(std::span<const u8> bytes, u64 seed) {
  return fnv1a64(bytes, fingerprint_init(seed));
}

TEST(Fingerprint, EqualBytesEqualFingerprintAcrossSeeds) {
  std::vector<u8> bytes(4096);
  std::iota(bytes.begin(), bytes.end(), u8{1});
  BytesBlob a(bytes);
  BytesBlob b(bytes);
  u64 fa = a.fingerprint(kDefaultFingerprintSeed, 0, bytes.size());
  EXPECT_EQ(fa, b.fingerprint(kDefaultFingerprintSeed, 0, bytes.size()));
  EXPECT_EQ(fa, byte_exact_fp(bytes, kDefaultFingerprintSeed));
  // A different seed keys a different hash family.
  EXPECT_NE(fa, a.fingerprint(kDefaultFingerprintSeed + 1, 0, bytes.size()));
  // Different bytes, different fingerprint.
  bytes[100] ^= 0xff;
  EXPECT_NE(fa, BytesBlob(bytes).fingerprint(kDefaultFingerprintSeed, 0, bytes.size()));
}

TEST(Fingerprint, ZeroRunMatchesByteExactZeros) {
  // ZeroBlob's O(log n) fast-forward must land on the same state as hashing
  // the zeros byte by byte — otherwise zero blocks from different blob
  // representations never dedup against each other.
  for (u64 len : {u64{1}, u64{7}, u64{4096}, u64{8192}, u64{100000}}) {
    std::vector<u8> zeros(len, 0);
    u64 expect = byte_exact_fp(zeros, kDefaultFingerprintSeed);
    EXPECT_EQ(ZeroBlob(len).fingerprint(kDefaultFingerprintSeed, 0, len), expect)
        << "len " << len;
    // The chunked default implementation agrees too.
    EXPECT_EQ(BytesBlob(zeros).fingerprint(kDefaultFingerprintSeed, 0, len), expect)
        << "len " << len;
  }
  EXPECT_EQ(ZeroBlob(16).fingerprint(7, 0, 0), fingerprint_init(7));
}

TEST(Fingerprint, SyntheticAllZeroRangeMatchesZeroBlob) {
  auto s = make_synthetic(9, 256_KiB, 1.0, 2.0);  // every page zero
  EXPECT_EQ(s->fingerprint(kDefaultFingerprintSeed, 0, 8_KiB),
            ZeroBlob(8_KiB).fingerprint(kDefaultFingerprintSeed, 0, 8_KiB));
}

TEST(Fingerprint, SyntheticStructuralDigestIsStableAndContentKeyed) {
  auto a = make_synthetic(9, 256_KiB, 0.3, 2.0);
  auto b = make_synthetic(9, 256_KiB, 0.3, 2.0);
  auto c = make_synthetic(10, 256_KiB, 0.3, 2.0);
  u64 fa = a->fingerprint(kDefaultFingerprintSeed, 32_KiB, 32_KiB);
  EXPECT_EQ(fa, b->fingerprint(kDefaultFingerprintSeed, 32_KiB, 32_KiB));
  EXPECT_NE(fa, c->fingerprint(kDefaultFingerprintSeed, 32_KiB, 32_KiB));
  EXPECT_NE(fa, a->fingerprint(kDefaultFingerprintSeed, 64_KiB, 32_KiB));
}

TEST(Fingerprint, SliceDelegatesWithOffset) {
  std::vector<u8> bytes(16_KiB);
  std::iota(bytes.begin(), bytes.end(), u8{0});
  BlobRef base = make_bytes(bytes);
  SliceBlob slice(base, 4_KiB, 8_KiB);
  EXPECT_EQ(slice.fingerprint(kDefaultFingerprintSeed, 1_KiB, 2_KiB),
            base->fingerprint(kDefaultFingerprintSeed, 5_KiB, 2_KiB));
}

TEST(CompressedSize, NeverExceedsRangeLength) {
  // Regression: ZeroBlob's len/1000 + 16 model exceeded len for short
  // ranges, making the "compressed" wire size bigger than the raw bytes.
  ZeroBlob z(64_KiB);
  for (u64 len : {u64{0}, u64{1}, u64{8}, u64{15}, u64{16}, u64{17}, u64{4096}}) {
    EXPECT_LE(z.compressed_size(0, len), len) << "len " << len;
  }
  EXPECT_EQ(z.compressed_size(0, 0), 0u);

  auto s = make_synthetic(11, 1_MiB, 0.9, 3.0);
  for (u64 len : {u64{1}, u64{16}, u64{100}, u64{4096}, u64{64_KiB}}) {
    EXPECT_LE(s->compressed_size(0, len), len) << "len " << len;
    EXPECT_LE(s->compressed_size(512_KiB, len), len) << "len " << len;
  }

  SliceBlob slice(make_zero(1_MiB), 8, 1024);
  EXPECT_LE(slice.compressed_size(0, 8), 8u);

  ExtentStore es;
  es.write_blob(0, make_zero(4_KiB), 0, 4_KiB);
  auto snap = es.snapshot();
  for (u64 len : {u64{1}, u64{8}, u64{64}}) {
    EXPECT_LE(snap->compressed_size(0, len), len) << "len " << len;
  }
}

}  // namespace
}  // namespace gvfs::blob
