(** Postmortem crash report: the record a sandbox leaves behind when
    the runtime kills it, plus deterministic text and JSON renderers.

    This module is pure data + formatting — the telemetry library has
    no dependencies, so everything that needs the emulator (reading
    sandbox memory, walking frames, disassembling around the faulting
    pc) is collected by [Runtime.postmortem] in [lib/runtime] and
    handed over as plain values.  Both renderers are deterministic
    byte-for-byte given equal reports: all quantities are either ints,
    [int64] addresses printed in hex, or the simulated cycle counter
    (itself deterministic), so golden tests can compare output
    verbatim. *)

(** One backtrace frame.  [fr_off] is the offset within [fr_sym] when
    symbolized, otherwise the frame pc's offset from the sandbox
    base. *)
type frame = { fr_pc : int64; fr_sym : string option; fr_off : int }

(** One disassembled instruction around the faulting pc; [dl_current]
    marks the faulting instruction itself (rendered with a [>] marker,
    matching the verifier's [pp_violation] context style). *)
type disasm_line = {
  dl_pc : int64;
  dl_word : int;
  dl_text : string;
  dl_current : bool;
}

(** One 16-byte hexdump row around the fault address; [None] bytes are
    unreadable (unmapped or no-read permission) and render as [??]. *)
type hex_row = { hr_addr : int64; hr_bytes : int option array }

(** Permission of one page neighbouring the fault page; [pg_perm] is
    ["r-x"]-style, or ["---"] for an unmapped page. *)
type page_info = { pg_addr : int64; pg_perm : string }

(** One coalesced mapped region of the sandbox's layout. *)
type region = {
  rg_lo : int64;
  rg_hi : int64;  (** exclusive *)
  rg_perm : string;
  rg_label : string;
}

type t = {
  pid : int;
  personality : string;
  reason : string;
  base : int64;
  insns : int;  (** user instructions executed by the dead sandbox *)
  cycles : float;  (** simulated cycles at time of death *)
  fault_addr : int64 option;
  fault_access : string option;
  pc : int64;
  sp : int64;
  regs : int64 array;  (** x0 .. x30 *)
  flags : string;  (** e.g. ["nZcv"]; capital = set *)
  backtrace : frame list;
  disasm : disasm_line list;
  hexdump : hex_row list;
  pages : page_info list;
  layout : region list;
  flight_total : int;  (** events ever recorded, including overwritten *)
  flight : Flight.event list;  (** surviving ring window, oldest first *)
  clamps : int;  (** guard-clamp audit counter *)
}

let frame_label (f : frame) : string =
  match f.fr_sym with
  | Some s when f.fr_off = 0 -> s
  | Some s -> Printf.sprintf "%s+0x%x" s f.fr_off
  | None -> Printf.sprintf "+0x%x" f.fr_off

(* ---------------- text rendering ---------------- *)

let to_text (r : t) : string =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "==== postmortem: sandbox %d (%s) ====\n" r.pid r.personality;
  pf "reason : %s\n" r.reason;
  (match (r.fault_addr, r.fault_access) with
  | Some a, Some acc -> pf "fault  : %s at 0x%Lx\n" acc a
  | _ -> ());
  pf "insns  : %d   cycles : %.1f   base : 0x%Lx\n\n" r.insns r.cycles r.base;
  pf "registers:\n";
  for i = 0 to 30 do
    pf "  x%-2d %016Lx%s" i r.regs.(i)
      (if i mod 4 = 3 || i = 30 then "\n" else "")
  done;
  pf "  sp  %016Lx  pc  %016Lx  flags %s\n\n" r.sp r.pc r.flags;
  pf "backtrace:\n";
  List.iteri
    (fun i f -> pf "  #%-2d 0x%Lx  %s\n" i f.fr_pc (frame_label f))
    r.backtrace;
  if r.disasm <> [] then begin
    pf "\ncode around pc:\n";
    List.iter
      (fun d ->
        pf "  %c %8Lx:  %08x  %s\n"
          (if d.dl_current then '>' else ' ')
          d.dl_pc d.dl_word d.dl_text)
      r.disasm
  end;
  if r.hexdump <> [] then begin
    pf "\nmemory around fault address:\n";
    List.iter
      (fun row ->
        pf "  %8Lx: " row.hr_addr;
        Array.iter
          (fun byte ->
            match byte with
            | Some v -> pf "%02x " v
            | None -> pf "?? ")
          row.hr_bytes;
        pf "\n")
      r.hexdump
  end;
  if r.pages <> [] then begin
    pf "\nfault-page neighbourhood:\n";
    List.iter (fun p -> pf "  page 0x%Lx  %s\n" p.pg_addr p.pg_perm) r.pages
  end;
  pf "\nsandbox layout:\n";
  List.iter
    (fun g ->
      pf "  0x%Lx-0x%Lx  %s  %s\n" g.rg_lo g.rg_hi g.rg_perm g.rg_label)
    r.layout;
  pf "\nflight recorder (last %d of %d events):\n" (List.length r.flight)
    r.flight_total;
  List.iter
    (fun (e : Flight.event) ->
      pf "  #%-5d %-10s pc=0x%x arg=0x%x\n" e.Flight.seq
        (Flight.kind_name e.Flight.kind)
        e.Flight.pc e.Flight.arg)
    r.flight;
  pf "\nguard clamps: %d\n" r.clamps;
  Buffer.contents b

(* ---------------- JSON rendering ---------------- *)

let to_json (r : t) : string =
  let hex a = Json.String (Printf.sprintf "0x%Lx" a) in
  let hexi a = Json.String (Printf.sprintf "0x%x" a) in
  let rows f xs = Json.rows (List.map (fun x -> Json.Object (f x)) xs) in
  Json.to_string
    (Json.block
       [ ("schema", String "lfi-postmortem/v1"); ("pid", Int r.pid);
         ("personality", String r.personality); ("reason", String r.reason);
         ("base", hex r.base); ("insns", Int r.insns);
         ("cycles", Json.float r.cycles);
         ( "fault",
           match (r.fault_addr, r.fault_access) with
           | Some a, Some acc -> Object [ ("addr", hex a); ("access", String acc) ]
           | _ -> Null );
         ( "regs",
           Object
             (List.init 31 (fun i -> (Printf.sprintf "x%d" i, hex r.regs.(i)))
             @ [ ("sp", hex r.sp); ("pc", hex r.pc) ]) );
         ("flags", String r.flags);
         ( "backtrace",
           rows
             (fun f ->
               [ ("pc", hex f.fr_pc);
                 ("sym", Json.option (fun s -> Json.String s) f.fr_sym);
                 ("off", Int f.fr_off) ])
             r.backtrace );
         ( "disasm",
           rows
             (fun d ->
               [ ("pc", hex d.dl_pc);
                 ("word", String (Printf.sprintf "%08x" d.dl_word));
                 ("text", String d.dl_text); ("current", Bool d.dl_current) ])
             r.disasm );
         ( "hexdump",
           rows
             (fun row ->
               let byte = function
                 | Some v -> Printf.sprintf "%02x" v
                 | None -> "??"
               in
               [ ("addr", hex row.hr_addr);
                 ( "bytes",
                   String
                     (String.concat " "
                        (Array.to_list (Array.map byte row.hr_bytes))) ) ])
             r.hexdump );
         ( "pages",
           rows (fun p -> [ ("addr", hex p.pg_addr); ("perm", String p.pg_perm) ])
             r.pages );
         ( "layout",
           rows
             (fun g ->
               [ ("lo", hex g.rg_lo); ("hi", hex g.rg_hi);
                 ("perm", String g.rg_perm); ("label", String g.rg_label) ])
             r.layout );
         ("flight_total", Int r.flight_total);
         ( "flight",
           rows
             (fun (e : Flight.event) ->
               [ ("seq", Int e.Flight.seq);
                 ("kind", String (Flight.kind_name e.Flight.kind));
                 ("pc", hexi e.Flight.pc); ("arg", hexi e.Flight.arg) ])
             r.flight );
         ("guard_clamps", Int r.clamps) ])
  ^ "\n"
