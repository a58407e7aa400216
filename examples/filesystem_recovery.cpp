// Filesystem recovery walk-through: the paper's Table II scenario as a
// story. A real (simulated) filesystem lives on the SSD; ransomware
// encrypts documents through the filesystem; SSD-Insider detects it from
// inside the drive, rolls the FTL mapping back, and fsck restores
// consistency — with every document byte-identical to its original.
#include <cstdio>
#include <numeric>

#include "common/rng.h"
#include "core/pretrained.h"
#include "fs/file_system.h"
#include "fs/fsck.h"
#include "host/ssd.h"

using namespace insider;

int main() {
  host::SsdConfig config;
  config.ftl.geometry.channels = 2;
  config.ftl.geometry.ways = 2;
  config.ftl.geometry.blocks_per_chip = 96;
  config.ftl.geometry.pages_per_block = 64;
  host::Ssd ssd(config, core::PretrainedTree());

  std::printf("== formatting InsiderFS on a %llu-block SSD ==\n",
              static_cast<unsigned long long>(ssd.BlockCount()));
  if (fs::FileSystem::Mkfs(ssd, 256) != fs::FsStatus::kOk) return 1;
  auto mounted = fs::FileSystem::Mount(ssd);
  if (!mounted) return 1;
  fs::FileSystem fsys = std::move(*mounted);

  // Populate /docs with a working set of reports big enough that the
  // attack runs for several seconds (the detector needs 3 positive 1-s
  // slices before the score crosses the threshold).
  Rng rng(99);
  if (fsys.Mkdir("/docs") != fs::FsStatus::kOk) return 1;
  struct Doc {
    std::string path;
    std::vector<std::byte> content;
  };
  std::vector<Doc> docs;
  for (int i = 0; i < 150; ++i) {
    Doc d;
    d.path = "/docs/report" + std::to_string(i) + ".txt";
    d.content.resize(64 * 1024 + rng.Below(128 * 1024));
    for (auto& b : d.content) b = static_cast<std::byte>(rng.Below(256));
    if (fsys.CreateFile(d.path) != fs::FsStatus::kOk) return 1;
    if (fsys.WriteFile(d.path, 0, d.content) != fs::FsStatus::kOk) return 1;
    docs.push_back(std::move(d));
  }
  std::printf("wrote %zu documents, filesystem free blocks: %llu\n",
              docs.size(),
              static_cast<unsigned long long>(fsys.FreeBlocks()));
  ssd.IdleUntil(ssd.Clock().Now() + Seconds(15));

  // The attack: read each document, overwrite it with ciphertext in place.
  std::printf("\n== ransomware starts at t=%.1fs ==\n",
              ToSeconds(ssd.Clock().Now()));
  SimTime attack_start = ssd.Clock().Now();
  std::size_t encrypted_files = 0;
  const double kCryptoMbps = 4.0;  // AES through one core paces the attack
  for (const Doc& d : docs) {
    if (ssd.AlarmActive()) break;
    std::vector<std::byte> buf(d.content.size());
    std::uint64_t n = 0;
    if (fsys.ReadFile(d.path, 0, buf, &n) != fs::FsStatus::kOk) break;
    for (auto& b : buf) b ^= std::byte{0x5A};  // "encrypt"
    ssd.Clock().Advance(TruncateMicros(
        static_cast<double>(buf.size()) / kCryptoMbps));
    if (fsys.WriteFile(d.path, 0, buf) != fs::FsStatus::kOk) {
      std::printf("  write refused mid-file: the drive went read-only\n");
      break;
    }
    ++encrypted_files;
  }
  std::printf("  ... %zu file(s) encrypted before the drive reacted\n",
              encrypted_files);

  if (!ssd.AlarmActive()) {
    std::printf("!! no alarm — attack completed\n");
    return 1;
  }
  std::printf("\n== ALARM after %.1f s, %zu file(s) already encrypted ==\n",
              ToSeconds(*ssd.FirstAlarmTime() - attack_start),
              encrypted_files);

  ftl::RollbackReport rb = ssd.RollBackNow();
  std::printf("rollback: %zu mapping entries reverted in %.4f s\n",
              rb.entries_reverted, ToSeconds(rb.duration));
  ssd.Reboot();

  std::printf("\n== reboot + fsck (the rollback looks like a 10-s-old power "
              "cut) ==\n");
  fs::FsckReport before = fs::Fsck(ssd, /*repair=*/false);
  std::printf("fsck check:  %s\n", before.ToString().c_str());
  fs::Fsck(ssd, /*repair=*/true);
  fs::FsckReport after = fs::Fsck(ssd, /*repair=*/false);
  std::printf("after repair: %s\n", after.ToString().c_str());

  auto remounted = fs::FileSystem::Mount(ssd);
  if (!remounted) return 1;
  std::size_t intact = 0;
  for (const Doc& d : docs) {
    std::vector<std::byte> buf(d.content.size());
    std::uint64_t n = 0;
    if (remounted->ReadFile(d.path, 0, buf, &n) == fs::FsStatus::kOk &&
        n == d.content.size() && buf == d.content) {
      ++intact;
    }
  }
  std::printf("\n== verification: %zu/%zu documents byte-identical to the "
              "originals ==\n",
              intact, docs.size());
  return intact == docs.size() && after.Clean() ? 0 : 1;
}
