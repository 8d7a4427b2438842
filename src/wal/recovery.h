#ifndef BRAHMA_WAL_RECOVERY_H_
#define BRAHMA_WAL_RECOVERY_H_

#include <vector>

#include "common/status.h"
#include "core/ert.h"
#include "storage/object_store.h"
#include "wal/log_manager.h"

namespace brahma {

// A fuzzy-made-sharp checkpoint of the whole store: arena images of every
// partition plus the LSN up to which their contents are complete.
struct CheckpointImage {
  bool valid = false;
  Lsn lsn = kInvalidLsn;
  std::vector<Partition::Image> images;  // one per partition, in order
  ObjectId persistent_root;
};

// ARIES-style restart recovery over the stable log (paper Section 4.4
// context): restores the last checkpoint image (or empty arenas), redoes
// history forward from the checkpoint LSN with idempotent physical
// application, then undoes losers in reverse global LSN order, honouring
// CLR undo_next chains. The undo is logged (a CLR per undone record, an
// abort record per loser) but not forced; the caller forces it before
// reopening. On return the store is transaction consistent.
Status RunRestartRecovery(ObjectStore* store, LogManager* log,
                          const CheckpointImage* checkpoint);

// Reconstructs every partition's ERT with a complete scan of the
// database — the paper's fallback when ERT updates are not logged
// (Section 4.4, item 1).
void RebuildErts(ObjectStore* store, ErtSet* erts);

// A migration the two-lock variant had in flight at the failure: O_new
// was durably created (committed reorg kCreate with reorg_old set) but
// O_old was never freed, so references to both may exist (Section 4.2).
struct InterruptedMigration {
  ObjectId old_id;
  ObjectId new_id;
};

// Scans the stable log for interrupted migrations.
std::vector<InterruptedMigration> FindInterruptedMigrations(
    ObjectStore* store, LogManager* log);

// Redo/undo application primitives (exposed for tests).
void RedoApply(ObjectStore* store, const LogRecord& rec);
void UndoApply(ObjectStore* store, const LogRecord& rec);

}  // namespace brahma

#endif  // BRAHMA_WAL_RECOVERY_H_
