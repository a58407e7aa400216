// Must-fail compile probes for status hygiene. The status types and the
// Try* calls are [[nodiscard]] and the build compiles with
// -Werror=unused-result, so silently dropping one is a compile error.
// tests/CMakeLists.txt compiles this file once per probe
// (-DINSIDER_PROBE_<NAME>) with -fsyntax-only -Werror=unused-result:
//
//   - as written, the probe discards the value and must be rejected with
//     an unused-result error;
//   - with -DINSIDER_PROBE_VOID the same statement carries a (void) cast
//     and must compile, so a probe cannot pass by failing for an
//     unrelated reason.
//
// NandStatus and DeviceStatus are only returned by private members, so
// their probes discard a call to a function declared here: the attribute
// sits on the type, and any function returning it is checked.
#ifdef INSIDER_PROBE_VOID
#define INSIDER_DISCARD (void)
#else
#define INSIDER_DISCARD
#endif

#if defined(INSIDER_PROBE_FTL_STATUS)
#include "host/ssd.h"
void Probe(insider::host::Ssd& ssd, const insider::IoRequest& request) {
  INSIDER_DISCARD ssd.Submit(request, 0);
}
#elif defined(INSIDER_PROBE_NAND_STATUS)
#include "nand/flash_array.h"
insider::nand::NandStatus SampleReadOutcome();
void Probe() { INSIDER_DISCARD SampleReadOutcome(); }
#elif defined(INSIDER_PROBE_DEVICE_STATUS)
#include "io/device.h"
insider::io::DeviceStatus DispatchOutcome();
void Probe() { INSIDER_DISCARD DispatchOutcome(); }
#elif defined(INSIDER_PROBE_REBUILD_REPORT)
#include "ftl/page_ftl.h"
void Probe(insider::ftl::PageFtl& ftl) {
  INSIDER_DISCARD ftl.RebuildFromNand(0);
}
#elif defined(INSIDER_PROBE_TRY_SUBMIT)
#include "io/io_engine.h"
void Probe(insider::io::IoEngine& engine, const insider::IoRequest& request) {
  INSIDER_DISCARD engine.TrySubmit(0, request);
}
#elif defined(INSIDER_PROBE_TRY_PUSH)
#include "io/ring_queue.h"
void Probe(insider::io::RingQueue<int>& ring) {
  INSIDER_DISCARD ring.TryPush(1);
}
#elif defined(INSIDER_PROBE_FS_STATUS)
#include "fs/file_system.h"
void Probe(insider::fs::FileSystem& fs) { INSIDER_DISCARD fs.Mkdir("/docs"); }
#else
#error "define one INSIDER_PROBE_<NAME> (see tests/CMakeLists.txt)"
#endif
