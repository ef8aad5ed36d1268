(** Sparse, page-protected 64-bit memory.

    Pages are 16KiB — the page size on Apple ARM64 machines, which is
    why the paper sizes guard regions at 48KiB (the smallest multiple of
    16KiB greater than 2^15 + 2^10).  Each page carries read / write /
    execute permissions; unmapped or mis-permissioned accesses fault,
    which is what makes the sandbox guard regions effective.

    The page table is keyed first by 4GiB {e region} (the top 32 bits
    of an address — exactly one sandbox slot) and then by page index,
    so everything that works on one slot's pages ({!region_pages},
    {!place_page}) costs O(pages of that region), never O(pages mapped
    in the whole address space).

    Lookups go through a direct-mapped {e translation cache}: an
    [tc_size]-entry array keyed by page index whose entries hold the
    page and its permissions precomputed as a bitmask, so the hot
    load/store/fetch path is an array probe plus a bit test instead of
    a hash-table lookup.  Any mapping or permission change flushes the
    cache and fires [on_code_change], the invalidation hook the
    emulator's decode cache registers (see {!Machine.create}): stale
    translations and stale decoded instructions are impossible by
    construction. *)

let page_bits = 14
let page_size = 1 lsl page_bits (* 16 KiB *)

let region_bits = 32
let region_size = 1 lsl region_bits (* 4 GiB: one sandbox slot *)

(* page index -> region index *)
let region_shift = region_bits - page_bits

type perm = { r : bool; w : bool; x : bool }

let perm_rw = { r = true; w = true; x = false }
let perm_r = { r = true; w = false; x = false }
let perm_rx = { r = true; w = false; x = true }

type page = {
  mutable perm : perm;
  data : Bytes.t;
  mutable dirty : bool;
      (** set on every store into the page; consumers (snapshot-based
          reset, see [lib/libbox]) clear it at their baseline and later
          restore only pages whose flag came back on.  A single
          unconditional store on the write path — cheaper than any
          branch or handle indirection. *)
}

type access = Read | Write | Fetch

type fault = { addr : int64; access : access; reason : string }

exception Fault of fault

let access_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Fetch -> "fetch"

let pp_fault fmt f =
  Format.fprintf fmt "%s fault at 0x%Lx (%s)"
    (access_to_string f.access)
    f.addr f.reason

(* Permission bitmask: bit 0 = read, bit 1 = write, bit 2 = execute.
   Matches the [access] order used by [get_page]. *)
let pb_r = 1
let pb_w = 2
let pb_x = 4

let perm_bits (p : perm) =
  (if p.r then pb_r else 0)
  lor (if p.w then pb_w else 0)
  lor if p.x then pb_x else 0

(* Translation-cache geometry: 256 entries x 16KiB pages = 4MiB of
   reach, comfortably covering a proxy workload's working set. *)
let tc_size = 256
let tc_mask = tc_size - 1

let dummy_page =
  { perm = { r = false; w = false; x = false };
    data = Bytes.create 0;
    dirty = false }

type t = {
  regions : (int, (int, page) Hashtbl.t) Hashtbl.t;
      (** region index -> (page index -> page); a region's table is
          created by its first mapping and kept after its last unmap *)
  (* direct-mapped translation cache, keyed by page index *)
  tc_idx : int array;  (** cached page index per slot; -1 = invalid *)
  tc_page : page array;  (** valid iff [tc_idx] matches *)
  tc_bits : int array;  (** [perm_bits] of the cached page *)
  mutable tc_hits : int;
      (** translation-cache hit/miss counters; flat mutable ints kept
          unconditionally, like {!Tlb.t}'s — an increment is cheaper
          than a telemetry-handle branch on this path *)
  mutable tc_misses : int;
  mutable on_code_change : int64 -> int -> unit;
      (** invalidation hook: [on_code_change addr len] is fired after
          any operation that can change what a fetch from
          [addr, addr+len) would observe — map / unmap / protect of the
          range, or a write into an executable page *)
}

let create () =
  {
    regions = Hashtbl.create 64;
    tc_idx = Array.make tc_size (-1);
    tc_page = Array.make tc_size dummy_page;
    tc_bits = Array.make tc_size 0;
    tc_hits = 0;
    tc_misses = 0;
    on_code_change = (fun _ _ -> ());
  }

let page_index (addr : int64) = Int64.to_int (Int64.shift_right_logical addr page_bits)
let page_offset (addr : int64) = Int64.to_int addr land (page_size - 1)

let fault addr access reason = raise (Fault { addr; access; reason })

let tc_flush m = Array.fill m.tc_idx 0 tc_size (-1)

let code_changed m (addr : int64) (len : int) = m.on_code_change addr len

let page_addr (idx : int) = Int64.shift_left (Int64.of_int idx) page_bits

(* The page table (page index -> page) of the region holding page
   [idx], if any page of that region was ever mapped. *)
let region_opt m (idx : int) = Hashtbl.find_opt m.regions (idx lsr region_shift)

(* The same, created empty if the region has none yet. *)
let region_of m (idx : int) =
  match region_opt m idx with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 256 in
      Hashtbl.replace m.regions (idx lsr region_shift) tbl;
      tbl

(** The page table of the region holding [addr], for a caller that
    probes many of one slot's pages and should look the region up
    once.  Map and unmap through this module, not through the table. *)
let region m (addr : int64) = region_of m (page_index addr)

let find_page_by_index m (idx : int) =
  match region_opt m idx with
  | Some tbl -> Hashtbl.find_opt tbl idx
  | None -> None

(** Map [len] bytes starting at [addr] (both page-aligned) with [perm].
    Already-mapped pages are re-protected, not cleared. *)
let map m ~(addr : int64) ~(len : int) ~(perm : perm) =
  if page_offset addr <> 0 then invalid_arg "Memory.map: unaligned address";
  if len mod page_size <> 0 then invalid_arg "Memory.map: unaligned length";
  let first = page_index addr in
  for i = first to first + (len / page_size) - 1 do
    let tbl = region_of m i in
    match Hashtbl.find_opt tbl i with
    | Some p -> p.perm <- perm
    | None ->
        Hashtbl.replace tbl i
          { perm; data = Bytes.make page_size '\000'; dirty = true }
  done;
  tc_flush m;
  code_changed m addr len

let unmap m ~(addr : int64) ~(len : int) =
  if page_offset addr <> 0 || len mod page_size <> 0 then
    invalid_arg "Memory.unmap: unaligned";
  let first = page_index addr in
  for i = first to first + (len / page_size) - 1 do
    Option.iter (fun tbl -> Hashtbl.remove tbl i) (region_opt m i)
  done;
  tc_flush m;
  code_changed m addr len

let is_mapped m (addr : int64) = find_page_by_index m (page_index addr) <> None

(** Change the protection of every page overlapping [addr, addr+len).
    [len] is rounded up to whole pages; [len = 0] is a no-op. *)
let protect m ~(addr : int64) ~(len : int) ~(perm : perm) =
  if len < 0 then invalid_arg "Memory.protect: negative length";
  if len > 0 then begin
    let first = page_index addr in
    let last = page_index (Int64.add addr (Int64.of_int (len - 1))) in
    for i = first to last do
      match find_page_by_index m i with
      | Some p -> p.perm <- perm
      | None -> invalid_arg "Memory.protect: unmapped page"
    done;
    tc_flush m;
    code_changed m addr len
  end

(** Map page [idx] holding a copy of [data] (one page long) with
    [perm], clean (dirty flag off): a fresh page, or an existing one
    overwritten and re-protected.  One translation-cache flush and one
    code invalidation, however the page got there — the primitive
    behind fork's slot copy and reset's re-mapping. *)
let place_page m (idx : int) ~(perm : perm) (data : bytes) =
  let tbl = region_of m idx in
  (match Hashtbl.find_opt tbl idx with
  | Some p ->
      Bytes.blit data 0 p.data 0 page_size;
      p.perm <- perm;
      p.dirty <- false
  | None -> Hashtbl.replace tbl idx { perm; data = Bytes.copy data; dirty = false });
  tc_flush m;
  code_changed m (page_addr idx) page_size

(** The mapped pages of the region holding [addr], as
    [(page index, page)] in ascending index order.  O(pages of that
    region): the slot walk behind baseline capture, fork, release and
    the crash report's layout. *)
let region_pages m (addr : int64) : (int * page) list =
  match region_opt m (page_index addr) with
  | None -> []
  | Some tbl ->
      List.of_seq (Hashtbl.to_seq tbl)
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* The translation-cache lookup: one array probe + one bit test on a
   hit; misses fill the slot from the page table.  The page index is
   computed with untagged int arithmetic (addresses fit in 63 bits, and
   [lsr] on a negative int still yields the non-negative index the
   unmapped-page fault path expects). *)
let[@inline] get_page m (addr : int64) (access : access) : page =
  let idx = Int64.to_int addr lsr page_bits in
  let slot = idx land tc_mask in
  let bit = match access with Read -> pb_r | Write -> pb_w | Fetch -> pb_x in
  if Array.unsafe_get m.tc_idx slot = idx then begin
    m.tc_hits <- m.tc_hits + 1;
    if Array.unsafe_get m.tc_bits slot land bit = 0 then
      fault addr access
        (match access with
        | Read -> "no read permission"
        | Write -> "no write permission"
        | Fetch -> "not executable");
    Array.unsafe_get m.tc_page slot
  end
  else begin
    m.tc_misses <- m.tc_misses + 1;
    match find_page_by_index m idx with
    | None -> fault addr access "unmapped"
    | Some p ->
        m.tc_idx.(slot) <- idx;
        m.tc_page.(slot) <- p;
        m.tc_bits.(slot) <- perm_bits p.perm;
        if perm_bits p.perm land bit = 0 then
          fault addr access
            (match access with
            | Read -> "no read permission"
            | Write -> "no write permission"
            | Fetch -> "not executable");
        p
  end

(* Writes into an executable page must invalidate decoded instructions
   covering it.  Pages are almost never writable+executable, so the
   check is a single bit test in practice. *)
let[@inline] wx_invalidate m (p : page) (addr : int64) (len : int) =
  if p.perm.x then code_changed m addr len

(* Single-byte primitives; multi-byte accesses may cross pages. *)

let read_u8 m addr =
  let p = get_page m addr Read in
  Bytes.get_uint8 p.data (page_offset addr)

let write_u8 m addr v =
  let p = get_page m addr Write in
  p.dirty <- true;
  wx_invalidate m p addr 1;
  Bytes.set_uint8 p.data (page_offset addr) v

(** Read [size] (1/2/4/8) bytes little-endian as an unsigned Int64
    (fully represented; 8-byte reads use the native int64 range). *)
let read m (addr : int64) (size : int) : int64 =
  let off = page_offset addr in
  if off + size <= page_size then begin
    let p = get_page m addr Read in
    match size with
    | 8 -> Bytes.get_int64_le p.data off
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le p.data off)) 0xFFFFFFFFL
    | 2 -> Int64.of_int (Bytes.get_uint16_le p.data off)
    | 1 -> Int64.of_int (Bytes.get_uint8 p.data off)
    | _ -> invalid_arg "Memory.read: bad size"
  end
  else begin
    (* page-crossing: byte by byte *)
    let v = ref 0L in
    for i = size - 1 downto 0 do
      let b = read_u8 m (Int64.add addr (Int64.of_int i)) in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
    done;
    !v
  end

let write m (addr : int64) (size : int) (v : int64) =
  let off = page_offset addr in
  if off + size <= page_size then begin
    let p = get_page m addr Write in
    p.dirty <- true;
    wx_invalidate m p addr size;
    match size with
    | 8 -> Bytes.set_int64_le p.data off v
    | 4 -> Bytes.set_int32_le p.data off (Int64.to_int32 v)
    | 2 -> Bytes.set_uint16_le p.data off (Int64.to_int v land 0xffff)
    | 1 -> Bytes.set_uint8 p.data off (Int64.to_int v land 0xff)
    | _ -> invalid_arg "Memory.write: bad size"
  end
  else
    for i = 0 to size - 1 do
      write_u8 m
        (Int64.add addr (Int64.of_int i))
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done

(** Fetch a 4-byte instruction word (requires execute permission). *)
let fetch m (addr : int64) : int =
  if Int64.logand addr 3L <> 0L then fault addr Fetch "misaligned pc";
  let p = get_page m addr Fetch in
  Int32.to_int (Bytes.get_int32_le p.data (page_offset addr)) land 0xFFFFFFFF

(** Bulk copy-in (for loaders). *)
let write_bytes m (addr : int64) (b : bytes) =
  Bytes.iteri
    (fun i c -> write_u8 m (Int64.add addr (Int64.of_int i)) (Char.code c))
    b

let read_bytes m (addr : int64) (len : int) : bytes =
  Bytes.init len (fun i ->
      Char.chr (read_u8 m (Int64.add addr (Int64.of_int i))))
