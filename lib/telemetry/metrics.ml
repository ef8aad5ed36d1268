(** Emulator metric counters (the "where do the cycles go" layer).

    A {!emu} record is a flat bag of mutable [int] counters the
    emulator's hot paths bump through a [Metrics.emu option] handle
    that is [None] by default: with telemetry disabled nothing is
    allocated and each potential count site costs one predictable
    branch, which keeps the PR-1 hot loop at its measured throughput.
    The step path counts per fetched instruction; the superblock
    engine charges the same counts per block from static tallies, so
    arming metrics does not cost block dispatch.

    The memory system's translation cache and the TLB already maintain
    their own unconditional counters (flat mutable ints, following the
    original {!Lfi_emulator.Tlb} design); a {!snapshot} folds those in
    next to the handle's counters so consumers see one coherent record
    per run. *)

type emu = {
  (* decode cache (per-page decoded-instruction arrays) *)
  mutable decode_hits : int;
  mutable decode_misses : int;
  mutable decode_invalidations : int;
      (** pages dropped by the code-change invalidation protocol *)
  (* escapes *)
  mutable faults : int;  (** memory faults that escaped to the runtime *)
  (* instruction-class mix of everything executed *)
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable guards : int;  (** LFI guard instructions (x21-based add) *)
  mutable other : int;
}

(** Instruction classes of the mix, as small ints: one classifier
    ([Interp.insn_class]) serves the step path and the superblock
    tallies. *)
let cls_load = 0
let cls_store = 1
let cls_branch = 2
let cls_guard = 3
let cls_other = 4
let n_classes = 5

let count_class (t : emu) (c : int) =
  if c = cls_load then t.loads <- t.loads + 1
  else if c = cls_store then t.stores <- t.stores + 1
  else if c = cls_branch then t.branches <- t.branches + 1
  else if c = cls_guard then t.guards <- t.guards + 1
  else t.other <- t.other + 1

(** Charge a mix tallied per class ([n_classes] slots, indexed by
    class): one superblock execution's worth of instructions. *)
let add_mix (t : emu) (mix : int array) =
  t.loads <- t.loads + mix.(cls_load);
  t.stores <- t.stores + mix.(cls_store);
  t.branches <- t.branches + mix.(cls_branch);
  t.guards <- t.guards + mix.(cls_guard);
  t.other <- t.other + mix.(cls_other)

let create_emu () =
  {
    decode_hits = 0;
    decode_misses = 0;
    decode_invalidations = 0;
    faults = 0;
    loads = 0;
    stores = 0;
    branches = 0;
    guards = 0;
    other = 0;
  }

(** One run's counters, with the memory-system counters (sampled from
    the TLB and translation cache at snapshot time) alongside. *)
type snapshot = {
  emu : emu;
  tc_hits : int;  (** page-translation cache *)
  tc_misses : int;
  tlb_hits : int;
  tlb_misses : int;  (** every miss is a page walk *)
  (* superblock engine (unconditional machine counters; nonzero only
     when block dispatch actually ran — armed metrics keep block
     dispatch, so a metrics run reports the same counts as a plain
     one) *)
  blk_execs : int;  (** blocks entered *)
  blk_builds : int;  (** blocks lowered (cache misses + rebuilds) *)
  blk_insns : int;  (** instructions retired under block dispatch *)
  blk_deopts : int;  (** quantum tails + profile/oracle deopts *)
}

let hit_rate ~hits ~misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let insn_total (e : emu) = e.loads + e.stores + e.branches + e.guards + e.other

(** Fraction of block entries served from the block cache (an entry
    that was not preceded by a fresh lowering). *)
let block_hit_rate (s : snapshot) : float =
  if s.blk_execs = 0 then 0.0
  else
    float_of_int (max 0 (s.blk_execs - s.blk_builds))
    /. float_of_int s.blk_execs

(** Mean instructions retired per block execution. *)
let avg_block_len (s : snapshot) : float =
  if s.blk_execs = 0 then 0.0
  else float_of_int s.blk_insns /. float_of_int s.blk_execs

(** A snapshot as a JSON object, one member per line. *)
let snapshot_json (s : snapshot) : Json.t =
  let e = s.emu in
  let cache hits misses extra =
    Json.Object
      ([ ("hits", Json.Int hits); ("misses", Json.Int misses) ]
      @ extra
      @ [ ("hit_rate", Json.float ~digits:6 (hit_rate ~hits ~misses)) ])
  in
  Json.block
    [ ("decode_cache",
       cache e.decode_hits e.decode_misses
         [ ("invalidated_pages", Int e.decode_invalidations) ]);
      ("translation_cache", cache s.tc_hits s.tc_misses []);
      ("tlb", cache s.tlb_hits s.tlb_misses [ ("walks", Int s.tlb_misses) ]);
      ("superblocks",
       Object
         [ ("executions", Int s.blk_execs); ("builds", Int s.blk_builds);
           ("insns", Int s.blk_insns); ("deopts", Int s.blk_deopts);
           ("hit_rate", Json.float ~digits:6 (block_hit_rate s));
           ("avg_block_len", Json.float ~digits:2 (avg_block_len s)) ]);
      ("faults", Int e.faults);
      ("insn_mix",
       Object
         [ ("loads", Int e.loads); ("stores", Int e.stores);
           ("branches", Int e.branches); ("guards", Int e.guards);
           ("other", Int e.other); ("total", Int (insn_total e)) ]) ]
