(** Execution facade: the runtime's entry point into the emulator.

    Re-exports the single-step interpreter ({!Interp}: [step],
    [exec_insn], the [event]/[trap] types) and routes whole quanta
    ({!run}) to the superblock engine ({!Block}).

    One observation rule decides the route (DESIGN.md §5f): counts
    that are static per block are charged per block, and only
    observers that need dynamic pc state deopt.  So armed metrics
    (instruction mix, decode counters) and armed overhead attribution
    (per-site cycles) keep block dispatch, and these force the step
    path for the whole quantum:
    - [m.profile] armed: the pc-sampling profiler needs [m.pc] and
      [m.insns] maintained every instruction;
    - [m.escape_oracle] armed: the fuzzing oracle checks every data
      access and branch target;
    - [m.blocks_enabled = false]: the per-machine kill switch
      (seeded from [LFI_SUPERBLOCKS]).
    Within block dispatch, a quantum tail too short for the next block
    is single-stepped as well.

    The flight recorder is NOT a deopt trigger: it is on by default in
    production configs, so lowered blocks replicate its events
    (taken-branch records, guard-clamp audits) exactly instead. *)

include Interp

let[@inline] blocks_armed (m : Machine.t) : bool =
  m.Machine.blocks_enabled
  && (match m.Machine.profile with None -> true | Some _ -> false)
  && (match m.Machine.escape_oracle with None -> true | Some _ -> false)

(** Run until an event occurs or [quantum] instructions have executed. *)
let run (m : Machine.t) ~(quantum : int) : event =
  if blocks_armed m then Block.run m ~quantum
  else begin
    if m.Machine.blocks_enabled then
      m.Machine.blk_deopts <- m.Machine.blk_deopts + 1;
    Interp.run m ~quantum
  end
