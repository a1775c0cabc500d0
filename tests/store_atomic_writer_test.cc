// store::AtomicFileWriter durability contract: the destination always
// holds either the previous complete file or the new complete file —
// never a torn mix, never a partial — across every injected error
// (short writes, ENOSPC, failures at open/write/fsync/close/rename)
// AND across a crash at every failpoint (fork-based kill-at-every-hit
// over WriteCorpusFile and WriteShardFile). Error paths additionally
// leave no temp file behind.
#include "store/atomic_writer.h"

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "extract/tsv_io.h"
#include "store/shard_store.h"
#include "store/store.h"

namespace kf::store {
namespace {

class AtomicWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/kf-atomic-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    // Best-effort scrub; asserts in the tests have already run.
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") ::unlink((dir_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(dir_.c_str());
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string ReadAll(const std::string& path) const {
    auto r = extract::ReadFile(path);
    return r.ok() ? std::move(r).value() : std::string();
  }

  /// Names of leftover "<anything>.tmp.<anything>" entries in dir_.
  std::vector<std::string> TempLeftovers() const {
    std::vector<std::string> out;
    DIR* d = ::opendir(dir_.c_str());
    if (d == nullptr) return out;
    while (dirent* e = ::readdir(d)) {
      if (std::string(e->d_name).find(".tmp.") != std::string::npos) {
        out.push_back(e->d_name);
      }
    }
    ::closedir(d);
    return out;
  }

  std::string dir_;
};

TEST_F(AtomicWriterTest, WritesCreatesAndReplaces) {
  const std::string path = Path("f.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "version-1").ok());
  EXPECT_EQ(ReadAll(path), "version-1");
  ASSERT_TRUE(AtomicWriteFile(path, "version-2, longer than before").ok());
  EXPECT_EQ(ReadAll(path), "version-2, longer than before");
  EXPECT_TRUE(TempLeftovers().empty());
}

TEST_F(AtomicWriterTest, MultiAppendConcatenates) {
  const std::string path = Path("f.bin");
  Result<AtomicFileWriter> w = AtomicFileWriter::Open(path);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->Append("hello ").ok());
  ASSERT_TRUE(w->Append("world").ok());
  ASSERT_TRUE(w->Commit().ok());
  EXPECT_EQ(ReadAll(path), "hello world");
}

TEST_F(AtomicWriterTest, AbandonLeavesDestinationUntouched) {
  const std::string path = Path("f.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "old").ok());
  {
    Result<AtomicFileWriter> w = AtomicFileWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->Append("half-written new").ok());
    // No Commit: the destructor abandons.
  }
  EXPECT_EQ(ReadAll(path), "old");
  EXPECT_TRUE(TempLeftovers().empty());
}

TEST_F(AtomicWriterTest, ShortWritesAreAbsorbed) {
  fault::ScopedFaults scope;
  // Every write() accepts only half its buffer: the loop must still
  // deliver every byte in order.
  fault::Arm("atomic.write.short", fault::FaultSpec{});
  const std::string path = Path("f.bin");
  std::string payload;
  for (int i = 0; i < 4096; ++i) payload += static_cast<char>('a' + i % 26);
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
  EXPECT_EQ(ReadAll(path), payload);
  EXPECT_GT(fault::Hits("atomic.write.short"), 1u);
}

TEST_F(AtomicWriterTest, ErrorAtEverySiteLeavesOldFileAndNoTemp) {
  const std::string path = Path("f.bin");
  for (const char* site : {"atomic.open", "atomic.write", "atomic.fsync",
                           "atomic.close", "atomic.rename"}) {
    ASSERT_TRUE(AtomicWriteFile(path, "old").ok());
    fault::ScopedFaults scope;
    fault::FaultSpec spec;
    spec.err = (std::string(site) == "atomic.write") ? ENOSPC : EIO;
    fault::Arm(site, spec);
    Status st = AtomicWriteFile(path, "new-content-that-must-not-land");
    ASSERT_FALSE(st.ok()) << site;
    EXPECT_EQ(st.code(), StatusCode::kIOError) << site;
    EXPECT_EQ(st.raw_errno(), spec.err) << site;
    EXPECT_EQ(ReadAll(path), "old") << site;
    EXPECT_TRUE(TempLeftovers().empty()) << site;
  }
}

TEST_F(AtomicWriterTest, DirsyncFailureReportsButTheNewFileIsCommitted) {
  const std::string path = Path("f.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "old").ok());
  fault::ScopedFaults scope;
  fault::Arm("atomic.dirsync", fault::FaultSpec{});
  Status st = AtomicWriteFile(path, "new");
  EXPECT_FALSE(st.ok());
  // Rename already landed: visible-but-not-yet-durable, still whole.
  EXPECT_EQ(ReadAll(path), "new");
  EXPECT_TRUE(TempLeftovers().empty());
}

// ---- crash consistency: kill at every failpoint --------------------

/// A tiny corpus (5 records) and a strictly larger variant, so v1 and
/// v2 images differ in both content and length.
Result<extract::TsvCorpus> MakeCorpus(int version) {
  std::string tsv =
      "subject\tpredicate\tobject\textractor\turl\tconfidence\n";
  const int rows = version == 1 ? 5 : 9;
  for (int i = 0; i < rows; ++i) {
    tsv += "S" + std::to_string(i % 3) + "\tp\tv" +
           std::to_string(version * 100 + i) + "\tx\thttps://a.example/" +
           std::to_string(i) + "\t0.9\n";
  }
  return extract::ReadExtractionsTsv(tsv);
}

/// MakeShard from store_shard_test, reduced: a deterministic shard image
/// parameterized by size so the v1 and v2 files differ.
std::string ShardImage(uint32_t items) {
  std::vector<uint32_t> ids, offs{0}, distinct, ct, cp, pt;
  std::vector<uint8_t> multi;
  for (uint32_t g = 0; g < items; ++g) {
    ids.push_back(g);
    multi.push_back(g % 2);
    distinct.push_back(1 + g % 3);
    for (uint32_t k = 0; k < 2; ++k) {
      ct.push_back(100 + 2 * g + k);
      cp.push_back((2 * g + k) % 5);
      pt.push_back(100 + (g + k) % (2 * items));
    }
    offs.push_back(2 * (g + 1));
  }
  ShardFileColumns c;
  c.shard_id = 7;
  c.items = {ids.data(), ids.size()};
  c.item_offsets = {offs.data(), offs.size()};
  c.item_multi = {multi.data(), multi.size()};
  c.item_distinct = {distinct.data(), distinct.size()};
  c.claim_triple = {ct.data(), ct.size()};
  c.claim_prov = {cp.data(), cp.size()};
  c.prov_triples = {pt.data(), pt.size()};
  return BuildShardFile(c);
}

/// The harness: seed `path` with `v1`, enumerate every failpoint hit the
/// writing `op` passes through, then for each (site, hit) fork a child
/// that arms `site=kill@hit` and runs `op` — the child _exit(42)s at
/// that exact syscall boundary. After every crash the destination must
/// byte-equal v1 (crash before the rename landed) or v2 (after), and
/// must re-parse via `parses`.
void KillAtEveryFailpoint(
    const std::string& path, const std::string& v1, const std::string& v2,
    const std::function<Status()>& op,
    const std::function<bool(const std::string&)>& parses) {
  // Enumerate (site, hits) with a clean run in-process. Seed first so
  // the observation covers exactly one `op` execution.
  ASSERT_TRUE(AtomicWriteFile(path, v1).ok());
  std::vector<std::pair<std::string, uint64_t>> sites;
  {
    fault::ScopedFaults scope;
    fault::SetCountAll(true);
    ASSERT_TRUE(op().ok());
    for (const auto& [site, hits] : fault::CountedSites()) {
      if (site.rfind("atomic.", 0) == 0) sites.emplace_back(site, hits);
    }
  }
  ASSERT_FALSE(sites.empty());

  int crashes = 0, survivals = 0;
  for (const auto& [site, hits] : sites) {
    for (uint64_t k = 1; k <= hits; ++k) {
      // Reset: destination holds v1, no faults armed in the parent.
      ASSERT_TRUE(AtomicWriteFile(path, v1).ok());
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        // Child: crash at exactly hit k of `site`, then (if the op
        // survives, e.g. k beyond the op's own hits) exit 0.
        fault::FaultSpec spec;
        spec.action = fault::FaultSpec::Action::kKill;
        spec.hit_from = k;
        spec.hit_to = k;
        fault::Arm(site, spec);
        (void)op();
        ::_exit(0);
      }
      int wstatus = 0;
      ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus)) << site << "@" << k;
      const int code = WEXITSTATUS(wstatus);
      ASSERT_TRUE(code == 0 || code == fault::kKillExitCode)
          << site << "@" << k << " exited " << code;
      (code == fault::kKillExitCode ? crashes : survivals) += 1;

      // The old-or-new contract, byte for byte, plus a clean re-parse.
      auto bytes = extract::ReadFile(path);
      ASSERT_TRUE(bytes.ok()) << site << "@" << k;
      EXPECT_TRUE(*bytes == v1 || *bytes == v2)
          << site << "@" << k << ": destination is torn ("
          << bytes->size() << " bytes vs " << v1.size() << "/" << v2.size()
          << ")";
      EXPECT_TRUE(parses(*bytes)) << site << "@" << k;
    }
  }
  // The matrix must actually have crashed somewhere (and the seeding
  // writes guarantee some hits fall before the op's own).
  EXPECT_GT(crashes, 0);
}

TEST_F(AtomicWriterTest, KillAtEveryFailpointWriteCorpusFileIsOldOrNew) {
  auto c1 = MakeCorpus(1);
  auto c2 = MakeCorpus(2);
  ASSERT_TRUE(c1.ok() && c2.ok());
  const std::string v1 = WriteCorpus(*c1);
  const std::string v2 = WriteCorpus(*c2);
  ASSERT_NE(v1, v2);
  const std::string path = Path("corpus.kfb");
  KillAtEveryFailpoint(
      path, v1, v2, [&] { return WriteCorpusFile(*c2, path); },
      [](const std::string& bytes) { return LoadCorpus(bytes).ok(); });
}

TEST_F(AtomicWriterTest, KillAtEveryFailpointWriteShardFileIsOldOrNew) {
  const std::string v1 = ShardImage(4);
  const std::string v2 = ShardImage(9);
  ASSERT_NE(v1, v2);
  const std::string path = Path("shard.kfb");
  KillAtEveryFailpoint(
      path, v1, v2,
      [&] { return AtomicWriteFile(path, v2); },
      [](const std::string& bytes) {
        auto file = BlockFile::Parse(bytes, ContentKind::kClaimShard);
        return file.ok() && ReadShardColumns(*file).ok();
      });
}

}  // namespace
}  // namespace kf::store
