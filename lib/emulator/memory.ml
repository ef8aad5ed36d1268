(** Sparse, page-protected 64-bit memory with copy-on-write pages.

    Pages are 16KiB — the page size on Apple ARM64 machines, which is
    why the paper sizes guard regions at 48KiB (the smallest multiple of
    16KiB greater than 2^15 + 2^10).  Each page carries read / write /
    execute permissions; unmapped or mis-permissioned accesses fault,
    which is what makes the sandbox guard regions effective.

    The page table is keyed first by 4GiB {e region} (the top 32 bits
    of an address — exactly one sandbox slot) and then by page index,
    so everything that works on one slot's pages ({!region_pages},
    {!place_page}, {!take_changes}) costs O(pages of that region),
    never O(pages mapped in the whole address space).

    Page data is copy-on-write, as the OS provides it to the paper's
    runtime (§4.4, §5.3).  A fresh mapping points at one shared
    {!zero_page}; a libbox baseline ({!mark_clean}) and a forked twin
    ({!share_page}) keep a page's buffer by reference.  A page whose
    buffer may be referenced elsewhere is {e shared}, and so is a page
    that is {e clean} (unchanged since its region was last marked
    clean, so its first write must be recorded); for both, the
    translation cache holds the page's permissions without W.  The
    first write therefore takes the cold miss / fault branch of
    {!get_page}, which gives a shared page a private copy, records a
    clean page in its region's change set, and only then grants W — or
    faults exactly as before if the page is not writable.  Map, unmap
    and protect record the pages they touch too, so
    {!take_changes} names every page a reset must look at.  Invariant:
    every write to page data goes through {!get_page} or
    {!place_page}.

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
  mutable data : Bytes.t;
  mutable shared : bool;
      (** [data] may be referenced elsewhere (the {!zero_page}, a
          baseline, a forked twin): the first write copies it *)
  mutable clean : bool;
      (** unchanged since the region was last marked clean
          ({!mark_clean}, {!place_page}): the first write records the
          page in the region's change set *)
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

(* What the translation cache grants: the page's permissions, less W
   while the first write must still be trapped. *)
let tc_bits_of (p : page) =
  if p.shared || p.clean then perm_bits p.perm land lnot pb_w
  else perm_bits p.perm

(* Translation-cache geometry: 256 entries x 16KiB pages = 4MiB of
   reach, comfortably covering a proxy workload's working set. *)
let tc_size = 256
let tc_mask = tc_size - 1

(** The one all-zero buffer every freshly mapped page shares until its
    first write.  Never written: a shared page is copied first. *)
let zero_page = Bytes.make page_size '\000'

let dummy_page =
  { perm = { r = false; w = false; x = false };
    data = Bytes.create 0;
    shared = true;
    clean = false }

type region = {
  pages : (int, page) Hashtbl.t;  (** page index -> page *)
  changed : (int, unit) Hashtbl.t;
      (** page indices written, mapped, unmapped or re-protected since
          the last {!take_changes} or {!mark_clean} *)
}

type t = {
  regions : (int, region) Hashtbl.t;
      (** region index -> its pages; a region is created by its first
          mapping and kept after its last unmap *)
  (* direct-mapped translation cache, keyed by page index *)
  tc_idx : int array;  (** cached page index per slot; -1 = invalid *)
  tc_page : page array;  (** valid iff [tc_idx] matches *)
  tc_bits : int array;  (** [tc_bits_of] the cached page *)
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

(* The region holding page [idx], if any page of it was ever mapped. *)
let region_opt m (idx : int) = Hashtbl.find_opt m.regions (idx lsr region_shift)

(* The same, created empty if the region has none yet. *)
let region_of m (idx : int) =
  match region_opt m idx with
  | Some r -> r
  | None ->
      let r = { pages = Hashtbl.create 256; changed = Hashtbl.create 16 } in
      Hashtbl.replace m.regions (idx lsr region_shift) r;
      r

let record (r : region) (idx : int) = Hashtbl.replace r.changed idx ()

let find_page_by_index m (idx : int) =
  match region_opt m idx with
  | Some r -> Hashtbl.find_opt r.pages idx
  | None -> None

(* The region and page at page index [idx], if it is mapped. *)
let lookup m (idx : int) =
  match region_opt m idx with
  | Some r -> Option.map (fun p -> (r, p)) (Hashtbl.find_opt r.pages idx)
  | None -> None

(** Map [len] bytes starting at [addr] (both page-aligned) with [perm].
    New pages share {!zero_page}; already-mapped pages are re-protected,
    not cleared. *)
let map m ~(addr : int64) ~(len : int) ~(perm : perm) =
  if page_offset addr <> 0 then invalid_arg "Memory.map: unaligned address";
  if len mod page_size <> 0 then invalid_arg "Memory.map: unaligned length";
  let first = page_index addr in
  for i = first to first + (len / page_size) - 1 do
    let r = region_of m i in
    (match Hashtbl.find_opt r.pages i with
    | Some p -> p.perm <- perm
    | None ->
        Hashtbl.replace r.pages i
          { perm; data = zero_page; shared = true; clean = false });
    record r i
  done;
  tc_flush m;
  code_changed m addr len

let unmap m ~(addr : int64) ~(len : int) =
  if page_offset addr <> 0 || len mod page_size <> 0 then
    invalid_arg "Memory.unmap: unaligned";
  let first = page_index addr in
  for i = first to first + (len / page_size) - 1 do
    match lookup m i with
    | Some (r, _) ->
        Hashtbl.remove r.pages i;
        record r i
    | None -> ()
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
      match lookup m i with
      | Some (r, p) ->
          p.perm <- perm;
          record r i
      | None -> invalid_arg "Memory.protect: unmapped page"
    done;
    tc_flush m;
    code_changed m addr len
  end

(** Map page [idx] holding [data] (one page long) with [perm], clean:
    a fresh page, or an existing one overwritten and re-protected.  A
    page that has a private buffer keeps it and [data] is copied in;
    otherwise the page shares [data] by reference, so the caller must
    not write [data] afterwards.  The primitive behind fork's page
    sharing ({!share_page}) and reset's restore; like {!mark_clean} it
    sets the state later changes are measured from, so it records
    nothing.  A re-protection flushes the translation cache; an
    unchanged permission only re-arms the page's own entry.  Code
    invalidation fires for a re-protection, a new page or an executable
    page. *)
let place_page m (idx : int) ~(perm : perm) (data : bytes) =
  let r = region_of m idx in
  let same_perm =
    match Hashtbl.find_opt r.pages idx with
    | Some p ->
        if p.shared then p.data <- data
        else Bytes.blit data 0 p.data 0 page_size;
        p.clean <- true;
        let same = p.perm = perm in
        p.perm <- perm;
        same
    | None ->
        Hashtbl.replace r.pages idx { perm; data; shared = true; clean = true };
        false
  in
  if same_perm then begin
    let slot = idx land tc_mask in
    if m.tc_idx.(slot) = idx then
      m.tc_bits.(slot) <- m.tc_bits.(slot) land lnot pb_w;
    if perm.x then code_changed m (page_addr idx) page_size
  end
  else begin
    tc_flush m;
    code_changed m (page_addr idx) page_size
  end

(** Map page [dst] as a copy-on-write twin of the mapped page [src]:
    both share [src]'s buffer, and each copies it on its first write.
    The whole translation cache is flushed, so no W bit cached for
    [src] survives. *)
let share_page m (src : page) (dst : int) =
  src.shared <- true;
  place_page m dst ~perm:src.perm src.data;
  tc_flush m

(** The mapped pages of the region holding [addr], as
    [(page index, page)] in ascending index order.  O(pages of that
    region): the slot walk behind baseline capture, fork, release and
    the crash report's layout. *)
let region_pages m (addr : int64) : (int * page) list =
  match region_opt m (page_index addr) with
  | None -> []
  | Some r ->
      List.of_seq (Hashtbl.to_seq r.pages)
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(** Make the current contents of [addr]'s region the state its changes
    are measured from: every page turns clean and shared (so the caller
    may keep each page's [data] by reference, as a baseline) and the
    change set is emptied.  Returns {!region_pages}. *)
let mark_clean m (addr : int64) : (int * page) list =
  Option.iter (fun r -> Hashtbl.clear r.changed) (region_opt m (page_index addr));
  let pages = region_pages m addr in
  List.iter
    (fun (_, p) ->
      p.shared <- true;
      p.clean <- true)
    pages;
  tc_flush m;
  pages

(** The pages of [addr]'s region written, mapped, unmapped or
    re-protected since the last call or {!mark_clean}, in ascending
    index order; the change set is emptied.  A page is recorded once
    however often it was written. *)
let take_changes m (addr : int64) : int list =
  match region_opt m (page_index addr) with
  | None -> []
  | Some r ->
      let l = Hashtbl.fold (fun i () acc -> i :: acc) r.changed [] in
      Hashtbl.clear r.changed;
      List.sort Int.compare l

(** How many mapped pages of [addr]'s region hold a private buffer
    rather than sharing one. *)
let private_pages m (addr : int64) : int =
  match region_opt m (page_index addr) with
  | None -> 0
  | Some r ->
      Hashtbl.fold (fun _ p n -> if p.shared then n else n + 1) r.pages 0

let no_permission = function
  | Read -> "no read permission"
  | Write -> "no write permission"
  | Fetch -> "not executable"

(* The first write to a writable shared or clean page: a private copy
   for a shared page, the change set for a clean one. *)
let first_write m (idx : int) (p : page) =
  if p.shared then begin
    p.data <- Bytes.copy p.data;
    p.shared <- false
  end;
  if p.clean then begin
    p.clean <- false;
    record (region_of m idx) idx
  end

(* Everything but a permitted translation-cache hit: a miss, a
   permission fault, or the first write to a shared or clean page.  Hit
   and miss counts are those of the probe, as if the hit path had
   taken the access. *)
let[@inline never] get_page_slow m (addr : int64) (access : access) (idx : int)
    (bit : int) : page =
  let slot = idx land tc_mask in
  let p =
    if m.tc_idx.(slot) = idx then begin
      m.tc_hits <- m.tc_hits + 1;
      m.tc_page.(slot)
    end
    else begin
      m.tc_misses <- m.tc_misses + 1;
      match find_page_by_index m idx with
      | None -> fault addr access "unmapped"
      | Some p -> p
    end
  in
  if bit = pb_w && p.perm.w then first_write m idx p;
  let bits = tc_bits_of p in
  m.tc_idx.(slot) <- idx;
  m.tc_page.(slot) <- p;
  m.tc_bits.(slot) <- bits;
  if bits land bit = 0 then fault addr access (no_permission access);
  p

(* The translation-cache lookup: one array probe + one bit test on a
   hit; everything else goes to [get_page_slow].  The page index is
   computed with untagged int arithmetic (addresses fit in 63 bits, and
   [lsr] on a negative int still yields the non-negative index the
   unmapped-page fault path expects). *)
let[@inline] get_page m (addr : int64) (access : access) : page =
  let idx = Int64.to_int addr lsr page_bits in
  let slot = idx land tc_mask in
  let bit = match access with Read -> pb_r | Write -> pb_w | Fetch -> pb_x in
  if Array.unsafe_get m.tc_idx slot = idx
     && Array.unsafe_get m.tc_bits slot land bit <> 0
  then begin
    m.tc_hits <- m.tc_hits + 1;
    Array.unsafe_get m.tc_page slot
  end
  else get_page_slow m addr access idx bit

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

(* [f addr pos n] for each page-bounded chunk of [addr, addr+len) in
   ascending order: [n] bytes at [addr + pos], all on one page. *)
let iter_chunks (addr : int64) (len : int) f =
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let n = min (len - !pos) (page_size - page_offset a) in
    f a !pos n;
    pos := !pos + n
  done

(** Bulk copy-in (loaders, runtime calls, libbox marshalling): one
    blit per page, in ascending order.  A fault names the first
    inaccessible address, with every byte before it written. *)
let write_bytes m (addr : int64) (b : bytes) =
  iter_chunks addr (Bytes.length b) (fun a pos n ->
      let p = get_page m a Write in
      wx_invalidate m p a n;
      Bytes.blit b pos p.data (page_offset a) n)

let read_bytes m (addr : int64) (len : int) : bytes =
  let b = Bytes.create len in
  iter_chunks addr len (fun a pos n ->
      Bytes.blit (get_page m a Read).data (page_offset a) b pos n);
  b
