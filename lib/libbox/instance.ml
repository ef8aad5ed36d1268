(** A warm library instance: one loaded sandbox plus everything needed
    to call into it and wind it back.

    {b Calling.}  A call builds a register snapshot — arguments in
    x0..x7, pc at the export, x30 at the return trampoline — anchors it
    to the slot with {!Lfi_runtime.Runtime.anchor_snapshot} (the same
    helper load and fork use), and drives the emulator until the
    trampoline surfaces through the runtime-call table
    ([Sysno.box_ret]).  Runtime calls the export makes along the way go
    through the ordinary {!Lfi_runtime.Runtime.handle_call}; faults
    take the ordinary kill path (postmortem included) and retire the
    instance.  The transition cost — call-gate entry + exit plus buffer
    marshalling, everything except the sandboxed execution itself — is
    accounted per call into a log2 histogram.

    {b Reset.}  At creation (after the optional init export) the
    instance captures a baseline: a copy of every mapped page of its
    slot plus the heap break, with the pages' dirty flags cleared.
    [reset] restores exactly the pages whose dirty flag came back on,
    unmaps pages the request mapped, remaps pages it unmapped, and
    rewinds the fd table and heap break — so no request can observe a
    previous request's writes (test-enforced). *)

open Lfi_emulator
open Lfi_runtime

type pristine = { pg_bytes : bytes; pg_perm : Memory.perm }

type t = {
  lib : Library.t;
  rt : Runtime.t;
  p : Proc.t;
  arena_base : int64;  (** absolute base of the marshalling arena *)
  arena_len : int;
  insn_budget : int;  (** per-call runaway limit *)
  pristine : (int, pristine) Hashtbl.t;  (** page index → baseline copy *)
  mutable baseline : Machine.snapshot;
  mutable heap_end0 : int64;
  mutable alive : bool;
  gate_hist : Lfi_telemetry.Histogram.t;
  call_hist : Lfi_telemetry.Histogram.t;
  span : Lfi_telemetry.Span.t;
      (** per-request phase record, rewound on every call — the serve
          layer reads it right after dispatch *)
  mutable calls : int;
  mutable resets : int;
  mutable call_insns : int;  (** total sandboxed instructions across calls *)
  mutable pages_restored : int;  (** dirty pages rewound across resets *)
}

let page = Memory.page_size

(** Snapshot the slot's current memory as the reset baseline and clear
    the dirty flags, so [reset] touches only pages written since. *)
let capture_baseline (inst : t) =
  Hashtbl.reset inst.pristine;
  List.iter
    (fun (idx, pg) ->
      Hashtbl.replace inst.pristine idx
        { pg_bytes = Bytes.copy pg.Memory.data; pg_perm = pg.Memory.perm };
      pg.Memory.dirty <- false)
    (Memory.region_pages inst.rt.Runtime.mem inst.p.Proc.base);
  inst.heap_end0 <- inst.p.Proc.heap_end;
  inst.baseline <- inst.p.Proc.snapshot

(** Wind the instance back to its baseline: restore dirty pages from
    the pristine copies (a straight [Bytes.blit] — data pages are never
    executable, so no decode-cache entry can go stale; the map/unmap
    paths go through the invalidating entry points), rewind the heap
    break, and rebuild the std fd table.

    Cost is O(pages of this slot), never O(pages of the runtime): the
    slot's page table is looked up once, the baseline pages are walked
    through [pristine], and any page the request mapped beyond the
    baseline must sit in [heap_end0, heap_end) because both [mmap] and
    [brk] bump-allocate at the break — so with hundreds of resident
    instances a reset still touches only its own slot. *)
let reset (inst : t) =
  let mem = inst.rt.Runtime.mem in
  let region = Memory.region mem inst.p.Proc.base in
  let restored = ref 0 in
  (* baseline pages: restore if dirtied; put back whole if the request
     unmapped or re-protected them *)
  Hashtbl.iter
    (fun idx pr ->
      match Hashtbl.find_opt region idx with
      | Some pg when pg.Memory.perm = pr.pg_perm ->
          if pg.Memory.dirty then begin
            Bytes.blit pr.pg_bytes 0 pg.Memory.data 0 page;
            pg.Memory.dirty <- false;
            incr restored
          end
      | _ ->
          Memory.place_page mem idx ~perm:pr.pg_perm pr.pg_bytes;
          incr restored)
    inst.pristine;
  (* pages the request mapped (mmap/brk allocate at the break, so they
     all live in the heap-growth range): drop them *)
  let lo = Memory.page_index inst.heap_end0
  and hi =
    Memory.page_index
      (Int64.add inst.p.Proc.heap_end (Int64.of_int (page - 1)))
  in
  for idx = lo to hi - 1 do
    if not (Hashtbl.mem inst.pristine idx) && Hashtbl.mem region idx then
      Memory.unmap mem ~addr:(Memory.page_addr idx) ~len:page
  done;
  inst.pages_restored <- inst.pages_restored + !restored;
  inst.p.Proc.heap_end <- inst.heap_end0;
  Proc.close_all inst.p;
  Proc.install_std_fds inst.p;
  Buffer.clear inst.p.Proc.stdout;
  inst.p.Proc.state <- Proc.Runnable;
  inst.p.Proc.snapshot <- inst.baseline;
  inst.resets <- inst.resets + 1

(* ------------------------------------------------------------------ *)
(* Marshalling                                                         *)
(* ------------------------------------------------------------------ *)

(** Cycles to move [len] bytes across the boundary: one load + one
    store per 8-byte word, as the runtime's copyin/copyout would
    execute. *)
let marshal_cycles (u : Cost_model.t) (len : int) : float =
  float_of_int ((len + 7) / 8) *. (u.Cost_model.load +. u.Cost_model.store)

(** Explicit copy-in/copy-out through the sandbox window, reusing the
    runtime's user-memory accessors ({!Runtime.write_user_bytes} /
    {!Runtime.read_user_bytes}); a bad pointer is [Error Efault]. *)
let copy_in (inst : t) (addr : int64) (b : bytes) : (unit, Api.error) result =
  match Runtime.write_user_bytes inst.rt inst.p addr b with
  | Ok () -> Ok ()
  | Error _ -> Error Api.Efault

let copy_out (inst : t) (addr : int64) (len : int) :
    (bytes, Api.error) result =
  match Runtime.read_user_bytes inst.rt inst.p addr len with
  | Ok b -> Ok b
  | Error _ -> Error Api.Efault

(* ------------------------------------------------------------------ *)
(* Calling                                                             *)
(* ------------------------------------------------------------------ *)

exception Marshal_error of Api.error

(** Place the arguments: scalars pass through, buffers are bump-
    allocated in the arena (8-byte aligned) and replaced by their
    sandbox-relative address.  Returns the register images and the
    [(addr, len)] list of [Out] reservations, plus marshalling cost. *)
let marshal (inst : t) (args : Api.arg list) :
    int64 list * (int64 * int) list * float =
  let u = inst.rt.Runtime.cfg.Runtime.uarch in
  let cursor = ref 0 and cost = ref 0.0 and outs = ref [] in
  let reserve len =
    let off = !cursor in
    if off + len > inst.arena_len then raise (Marshal_error Api.Arena_overflow);
    cursor := (off + len + 7) / 8 * 8;
    Int64.add inst.arena_base (Int64.of_int off)
  in
  let rec go = function
    | [] -> []
    | a :: tl ->
        let r =
          match a with
          | Api.I v -> v
          | Api.In b ->
              let addr = reserve (Bytes.length b) in
              (match copy_in inst addr b with
              | Ok () -> ()
              | Error e -> raise (Marshal_error e));
              cost := !cost +. marshal_cycles u (Bytes.length b);
              Int64.sub addr inst.p.Proc.base
          | Api.Out len ->
              let addr = reserve len in
              outs := (addr, len) :: !outs;
              Int64.sub addr inst.p.Proc.base
        in
        r :: go tl
  in
  let regs = go args in
  (regs, List.rev !outs, !cost)

(** Retire the instance through the runtime's ordinary kill path: the
    postmortem is assembled while the machine still holds the dead
    call's register state, then the slot is released for reuse. *)
let kill (inst : t) ?fault (reason : string) : Api.error =
  Runtime.kill_proc inst.rt ?fault inst.p reason;
  Runtime.remove_proc inst.rt inst.p;
  inst.alive <- false;
  Api.Killed reason

let retire (inst : t) =
  Runtime.remove_proc inst.rt inst.p;
  inst.alive <- false

(** Call [name] with [args]; on success the reply carries the return
    value, the [Out] buffers, and the per-call cycle accounting. *)
let call (inst : t) (name : string) (args : Api.arg list) :
    (Api.reply, Api.error) result =
  if not inst.alive then Error (Api.Killed "instance already retired")
  else
    match Library.export_addr inst.lib name with
    | None -> Error (Api.Unknown_export name)
    | Some entry -> (
        if List.length args > 8 then Error Api.Too_many_args
        else
          match
            Lfi_telemetry.Span.start inst.span name;
            marshal inst args
          with
          | exception Marshal_error e -> Error e
          | reg_args, outs, marshal_in -> (
              let rt = inst.rt and p = inst.p in
              let m = rt.Runtime.machine in
              let u = rt.Runtime.cfg.Runtime.uarch in
              let gate = ref marshal_in in
              Lfi_telemetry.Span.set inst.span Lfi_telemetry.Span.Marshal_in
                marshal_in;
              (* entry snapshot: args in x0.., x30 at the trampoline,
                 everything anchored to the slot *)
              let regs = Array.make 31 0L in
              List.iteri (fun i v -> regs.(i) <- v) reg_args;
              regs.(30) <- Int64.of_int inst.lib.Library.trampoline;
              let snap =
                Runtime.anchor_snapshot p.Proc.base
                  {
                    Machine.s_pc = Int64.of_int entry;
                    s_regs = regs;
                    s_sp = Int64.of_int Lfi_core.Layout.stack_top;
                    s_flags = (false, false, false, false);
                    s_vlo = Array.make 32 0L;
                    s_vhi = Array.make 32 0L;
                  }
              in
              Machine.restore m snap;
              m.Machine.flight <-
                (if rt.Runtime.cfg.Runtime.flight_recorder then
                   Some p.Proc.flight
                 else None);
              let t0 = Machine.cycles m and i0 = m.Machine.insns in
              (* host→sandbox gate: same price as a runtime-call entry *)
              Machine.add_cycles m u.Cost_model.lfi_runtime_call_entry;
              gate := !gate +. u.Cost_model.lfi_runtime_call_entry;
              inst.span.Lfi_telemetry.Span.t0 <- t0;
              Lfi_telemetry.Span.set inst.span Lfi_telemetry.Span.Gate_in
                u.Cost_model.lfi_runtime_call_entry;
              let rec drive () =
                if m.Machine.insns - i0 > inst.insn_budget then
                  Error (kill inst "library call instruction budget exceeded")
                else
                  match Exec.run m ~quantum:rt.Runtime.cfg.Runtime.quantum with
                  | Exec.Quantum_expired -> drive ()
                  | Exec.Runtime_entry pc ->
                      let k =
                        Int64.to_int (Int64.sub pc Machine.host_region_start)
                        / 8
                      in
                      m.Machine.pc <- m.Machine.regs.(30);
                      if k = Sysno.box_ret then begin
                        Lfi_telemetry.Span.set inst.span
                          Lfi_telemetry.Span.Exec
                          (Machine.cycles m -. t0
                          -. u.Cost_model.lfi_runtime_call_entry);
                        (* sandbox→host gate *)
                        Machine.add_cycles m
                          u.Cost_model.lfi_runtime_call_entry;
                        gate := !gate +. u.Cost_model.lfi_runtime_call_entry;
                        Lfi_telemetry.Span.set inst.span
                          Lfi_telemetry.Span.Gate_out
                          u.Cost_model.lfi_runtime_call_entry;
                        Ok m.Machine.regs.(0)
                      end
                      else begin
                        match Runtime.handle_call rt p k with
                        | Runtime.Continue -> drive ()
                        | Runtime.Switch ->
                            ignore
                              (kill inst
                                 "blocking runtime call in library call");
                            Error Api.Blocked
                        | Runtime.Died (Runtime.Exited c) ->
                            retire inst;
                            Error (Api.Exited c)
                        | Runtime.Died (Runtime.Killed why) ->
                            Error (kill inst why)
                      end
                  | Exec.Trap tr ->
                      let fault, why = Runtime.trap_kill tr in
                      Error (kill inst ?fault why)
              in
              let insns_of () = m.Machine.insns - i0 in
              match drive () with
              | Error e ->
                  p.Proc.user_insns <- p.Proc.user_insns + insns_of ();
                  Error e
              | Ok ret -> (
                  (* copy-out, in argument order *)
                  let mout = ref 0.0 in
                  let rec collect acc = function
                    | [] ->
                        Lfi_telemetry.Span.set inst.span
                          Lfi_telemetry.Span.Marshal_out !mout;
                        Ok (List.rev acc)
                    | (addr, len) :: tl -> (
                        gate := !gate +. marshal_cycles u len;
                        mout := !mout +. marshal_cycles u len;
                        Machine.add_cycles m (marshal_cycles u len);
                        match copy_out inst addr len with
                        | Ok b -> collect (b :: acc) tl
                        | Error e -> Error e)
                  in
                  match collect [] outs with
                  | Error e -> Error e
                  | Ok out_bufs ->
                      let call_insns = insns_of () in
                      let total = Machine.cycles m -. t0 in
                      p.Proc.user_insns <- p.Proc.user_insns + call_insns;
                      p.Proc.rtcalls <- p.Proc.rtcalls + 1;
                      inst.calls <- inst.calls + 1;
                      inst.call_insns <- inst.call_insns + call_insns;
                      Lfi_telemetry.Histogram.observe inst.gate_hist !gate;
                      Lfi_telemetry.Histogram.observe inst.call_hist total;
                      (match rt.Runtime.trace with
                      | None -> ()
                      | Some t ->
                          Lfi_telemetry.Trace.complete t
                            ~name:("call:" ^ name) ~cat:"libbox" ~ts:t0
                            ~dur:total ~pid:Runtime.trace_pid ~tid:p.Proc.pid
                            ~args:
                              [ ("ret", Lfi_telemetry.Json.Float (Int64.to_float ret, 0));
                                ( "gate_cycles",
                                  Lfi_telemetry.Json.Int
                                    (int_of_float !gate) ) ]);
                      Ok
                        {
                          Api.ret;
                          outs = out_bufs;
                          stats =
                            {
                              Api.gate_cycles = !gate;
                              total_cycles = total;
                              call_insns;
                            };
                        })))

(** Load one warm instance into [rt] (which should have verification
    off: the {!Library} already verified the image).  Runs [init] when
    given, then captures the reset baseline — init effects persist
    across resets. *)
let create ?(arena = 1 lsl 16) ?(insn_budget = 200_000_000) ?init
    (rt : Runtime.t) (lib : Library.t) : t =
  let p = Runtime.load rt ~personality:Proc.Lfi lib.Library.elf in
  let arena_len = Runtime.align_up (max arena 1) in
  let arena_base = p.Proc.heap_end in
  Memory.map rt.Runtime.mem ~addr:arena_base ~len:arena_len
    ~perm:Memory.perm_rw;
  p.Proc.heap_end <- Int64.add arena_base (Int64.of_int arena_len);
  let inst =
    {
      lib;
      rt;
      p;
      arena_base;
      arena_len;
      insn_budget;
      pristine = Hashtbl.create 64;
      baseline = p.Proc.snapshot;
      heap_end0 = p.Proc.heap_end;
      alive = true;
      gate_hist = Lfi_telemetry.Histogram.create ();
      call_hist = Lfi_telemetry.Histogram.create ();
      span = Lfi_telemetry.Span.create ();
      calls = 0;
      resets = 0;
      call_insns = 0;
      pages_restored = 0;
    }
  in
  (match init with
  | None -> ()
  | Some name -> (
      match call inst name [] with
      | Ok _ -> ()
      | Error e ->
          raise
            (Library.Error
               (Printf.sprintf "%s: init %S failed: %s" lib.Library.name name
                  (Api.error_to_string e)))));
  (* the init call counts toward neither the serving stats *)
  Lfi_telemetry.Histogram.reset inst.gate_hist;
  Lfi_telemetry.Histogram.reset inst.call_hist;
  inst.calls <- 0;
  inst.call_insns <- 0;
  capture_baseline inst;
  inst
