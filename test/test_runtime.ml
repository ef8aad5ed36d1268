(* Integration tests for the runtime: loading, verification at load,
   runtime calls, the VFS, pipes, fork, wait, scheduling, isolation. *)

open Lfi_arm64

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let build ?(rewrite = true) asm =
  let src = Parser.parse_string_exn asm in
  let src = if rewrite then fst (Lfi_core.Rewriter.rewrite src) else src in
  Lfi_elf.Elf.of_image (Assemble.assemble src)

let run_lfi ?config asm =
  let rt = Lfi_runtime.Runtime.create ?config () in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (build asm) in
  Lfi_runtime.Runtime.run_one rt p

let exit_code = function
  | Lfi_runtime.Runtime.Exited c, _, _, _ -> c
  | Lfi_runtime.Runtime.Killed why, _, _, _ -> Alcotest.failf "killed: %s" why

let check64 = Alcotest.(check int64)

(* The shared zero buffer must never be written: a shared page is
   copied before its first write. *)
let zero_page_intact () =
  Bytes.for_all (fun c -> c = '\000') Lfi_emulator.Memory.zero_page

(* Run [f] under superblock dispatch, then under per-instruction
   stepping. *)
let both_modes (f : unit -> unit) =
  List.iter
    (fun v ->
      let module Machine = Lfi_emulator.Machine in
      let saved = !Machine.superblocks_default in
      Machine.superblocks_default := v;
      Fun.protect ~finally:(fun () -> Machine.superblocks_default := saved) f)
    [ true; false ]

(* Sandbox offset of an image's first non-executable segment. *)
let data_offset (elf : Lfi_elf.Elf.t) =
  match
    List.find_opt
      (fun (s : Lfi_elf.Elf.segment) -> s.flags land Lfi_elf.Elf.pf_x = 0)
      elf.Lfi_elf.Elf.segments
  with
  | Some s -> s.vaddr
  | None -> Alcotest.fail "image has no data segment"

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---------------- basic runtime calls ---------------- *)

let test_exit () =
  checki "code" 42 (exit_code (run_lfi "_start:\n\tmovz x0, #42\n\tsvc #1\n\tb _start\n"))

let test_write_stdout () =
  let reason, out, _, _ =
    run_lfi
      "_start:\n\tadr x1, msg\n\tmovz x0, #1\n\tmovz x2, #3\n\tsvc #2\n\tsvc \
       #1\n\tb _start\n.data\nmsg:\n\t.asciz \"abc\"\n"
  in
  ignore reason;
  checks "stdout" "abc" out

let test_getpid () =
  checki "pid" 1 (exit_code (run_lfi "_start:\n\tsvc #10\n\tsvc #1\n\tb _start\n"))

let test_unknown_syscall () =
  (* rewriter maps svc #40 to table entry 40 which is within Sysno
     range? 40 >= count -> unmapped entry -> trap *)
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build "_start:\n\tsvc #40\n\tsvc #1\n\tb _start\n")
  in
  match Lfi_runtime.Runtime.run_one rt p with
  | Lfi_runtime.Runtime.Killed _, _, _, _ -> ()
  | Lfi_runtime.Runtime.Exited c, _, _, _ ->
      Alcotest.failf "exited %d but should have trapped" c

(* ---------------- load-time verification ---------------- *)

let test_load_rejects_unverified () =
  let rt = Lfi_runtime.Runtime.create () in
  match
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build ~rewrite:false "_start:\n\tstr x0, [x1]\n\tsvc #1\n\tb _start\n")
  with
  | exception Lfi_runtime.Runtime.Load_error _ -> ()
  | _ -> Alcotest.fail "unverified binary loaded"

(* The loader checks the whole image before mapping a page.  mcf at O2
   is the carrier: a verified image that gains one extra segment. *)
let mcf_o2 () =
  let w =
    match Lfi_workloads.Registry.find "mcf" with
    | Some w -> w
    | None -> Alcotest.fail "mcf workload not registered"
  in
  let src = Lfi_minic.Compile.compile w.Lfi_workloads.Common.program in
  Lfi_elf.Elf.of_image
    (Assemble.assemble
       (fst (Lfi_core.Rewriter.rewrite ~config:Lfi_core.Config.o2 src)))

let with_segment (elf : Lfi_elf.Elf.t) seg =
  { elf with Lfi_elf.Elf.segments = elf.Lfi_elf.Elf.segments @ [ seg ] }

let code_of elf =
  match Lfi_elf.Elf.code_segment elf with
  | Ok s -> s
  | Error msg -> Alcotest.fail msg

let expect_load_error rt elf =
  match Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf with
  | exception Lfi_runtime.Runtime.Load_error _ -> ()
  | _ -> Alcotest.fail "image loaded"

let slot_pages rt slot =
  Lfi_emulator.Memory.region_pages rt.Lfi_runtime.Runtime.mem
    (Lfi_core.Layout.slot_base slot)

let test_load_rejects_second_code_segment () =
  (* a second executable segment holding [svc #0] would be mapped
     without ever being verified *)
  let svc = Bytes.create 4 in
  Bytes.set_int32_le svc 0 0xd4000001l;
  let elf =
    with_segment (mcf_o2 ())
      { Lfi_elf.Elf.vaddr = 0x4000000;
        flags = Lfi_elf.Elf.pf_r lor Lfi_elf.Elf.pf_x;
        data = svc; memsz = 4 }
  in
  checkb "two code segments rejected" true
    (Result.is_error (Lfi_elf.Elf.code_segment elf));
  checkb "and have no text segment" true (Lfi_elf.Elf.text_segment elf = None);
  let rt = Lfi_runtime.Runtime.create () in
  expect_load_error rt elf;
  checki "nothing mapped" 0 (List.length (slot_pages rt 1))

let test_load_rejects_cross_slot_segment () =
  (* with slot 1 free, an extra data segment one slot up would land on
     the code of the sandbox in slot 2 *)
  let module Memory = Lfi_emulator.Memory in
  let elf = mcf_o2 () in
  let text = code_of elf in
  let rt = Lfi_runtime.Runtime.create () in
  let first = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  let victim = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  Lfi_runtime.Runtime.remove_proc rt first;
  let mem = rt.Lfi_runtime.Runtime.mem in
  let code = Int64.add victim.Lfi_runtime.Proc.base (Int64.of_int text.vaddr) in
  let word = Memory.read mem code 4 in
  expect_load_error rt
    (with_segment elf
       { Lfi_elf.Elf.vaddr = Lfi_core.Layout.sandbox_size + text.vaddr;
         flags = Lfi_elf.Elf.pf_r lor Lfi_elf.Elf.pf_w;
         data = Bytes.make 4 '\xaa'; memsz = 4 });
  checkb "victim code unchanged" true (Int64.equal word (Memory.read mem code 4));
  checkb "victim code still r-x" true
    (match Memory.find_page_by_index mem (Memory.page_index code) with
    | Some pg -> pg.Memory.perm = Memory.perm_rx
    | None -> false)

let test_load_rejects_huge_memsz () =
  (* validation runs before any mapping, so neither size touches host
     memory: one segment far past the slot, one inside it but over the
     image bound *)
  let elf = mcf_o2 () in
  List.iter
    (fun memsz ->
      let rt = Lfi_runtime.Runtime.create () in
      expect_load_error rt
        (with_segment elf
           { Lfi_elf.Elf.vaddr = 0x8000000; flags = Lfi_elf.Elf.pf_r;
             data = Bytes.empty; memsz });
      checki "nothing mapped" 0 (List.length (slot_pages rt 1)))
    [ 1 lsl 40; Lfi_core.Layout.max_image_size ]

let test_native_skips_verification () =
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt
      ~personality:Lfi_runtime.Proc.Native_in_lfi_runtime
      (build ~rewrite:false
         "_start:\n\tadr x1, d\n\tmovz x2, #7\n\tstr x2, [x1]\n\tldr x0, \
          [x1]\n\tsvc #1\n\tb _start\n.data\nd:\n\t.quad 0\n")
  in
  checki "native" 7 (exit_code (Lfi_runtime.Runtime.run_one rt p))

(* ---------------- files and access control ---------------- *)

let asm_open_read =
  (* open("/data/f"), read 3 bytes, exit with first byte *)
  "_start:\n\tadr x0, path\n\tmovz x1, #0\n\tsvc #4\n\tmov x3, x0\n\tmov x0, \
   x3\n\tadr x1, buf\n\tmovz x2, #3\n\tsvc #3\n\tadr x4, buf\n\tldrb w0, \
   [x4]\n\tsvc #1\n\tb _start\n.data\npath:\n\t.asciz \
   \"/data/f\"\nbuf:\n\t.zero 8\n"

let test_file_read () =
  let rt = Lfi_runtime.Runtime.create () in
  Lfi_runtime.Vfs.add_file rt.Lfi_runtime.Runtime.vfs "/data/f" "XYZ";
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (build asm_open_read) in
  checki "first byte" (Char.code 'X') (exit_code (Lfi_runtime.Runtime.run_one rt p))

let test_access_control () =
  let config =
    { Lfi_runtime.Runtime.default_config with allowed_prefixes = [ "/tmp" ] }
  in
  let rt = Lfi_runtime.Runtime.create ~config () in
  Lfi_runtime.Vfs.add_file rt.Lfi_runtime.Runtime.vfs "/data/f" "XYZ";
  (* open must fail with EACCES (-13); exit with open's result *)
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build
         "_start:\n\tadr x0, path\n\tmovz x1, #0\n\tsvc #4\n\tsvc #1\n\tb \
          _start\n.data\npath:\n\t.asciz \"/data/f\"\n")
  in
  checki "eacces" (-13) (exit_code (Lfi_runtime.Runtime.run_one rt p))

let test_file_write_and_contents () =
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build
         "_start:\n\tadr x0, path\n\tmovz x1, #1\n\tsvc #4\n\tmov x5, \
          x0\n\tmov x0, x5\n\tadr x1, msg\n\tmovz x2, #2\n\tsvc #2\n\tmov x0, \
          x5\n\tsvc #5\n\tmovz x0, #0\n\tsvc #1\n\tb _start\n.data\n\
          path:\n\t.asciz \"/out\"\nmsg:\n\t.asciz \"hi\"\n")
  in
  checki "exit" 0 (exit_code (Lfi_runtime.Runtime.run_one rt p));
  match Lfi_runtime.Vfs.lookup rt.Lfi_runtime.Runtime.vfs "/out" with
  | Some f -> checks "contents" "hi" (Lfi_runtime.Vfs.file_contents f)
  | None -> Alcotest.fail "file not created"

(* ---------------- memory management ---------------- *)

let test_mmap () =
  (* mmap 2 pages, store/load across them *)
  let code =
    "_start:\n\tmovz x0, #0x8000\n\tsvc #11\n\tmov x1, x0\n\tmovz x2, \
     #99\n\tstr x2, [x1, #4096]\n\tldr x0, [x1, #4096]\n\tsvc #1\n\tb _start\n"
  in
  checki "mmap rw" 99 (exit_code (run_lfi code))

let test_brk () =
  let code =
    "_start:\n\tmovz x0, #0\n\tsvc #15\n\tmov x1, x0\n\tadd x0, x1, #2048\n\t\
     svc #15\n\tmovz x2, #55\n\tstr x2, [x1]\n\tldr x0, [x1]\n\tsvc #1\n\tb _start\n"
  in
  checki "brk" 55 (exit_code (run_lfi code))

(* ---------------- faults kill the process ---------------- *)

let test_guard_page_fault () =
  (* store through sp after moving it to the bottom of the stack region
     is fine; loading from unmapped heap traps *)
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build
         "_start:\n\tmovz x1, #0x2000, lsl #16\n\tldr x0, [x1]\n\tsvc #1\n\tb _start\n")
  in
  match Lfi_runtime.Runtime.run_one rt p with
  | Lfi_runtime.Runtime.Killed why, _, _, _ ->
      checkb "fault" true (contains why "fault")
  | _ -> Alcotest.fail "expected kill"

(* ---------------- fork / wait / pipes ---------------- *)

let test_fork_pids () =
  (* parent exits with child pid (2); child exits 0 *)
  let code =
    "_start:\n\tsvc #7\n\tsvc #1\n\tb _start\n"
  in
  let rt = Lfi_runtime.Runtime.create () in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (build code) in
  let log = Lfi_runtime.Runtime.run rt in
  (match List.assoc_opt p.Lfi_runtime.Proc.pid log with
  | Some (Lfi_runtime.Runtime.Exited c) -> checki "parent sees child pid" 2 c
  | _ -> Alcotest.fail "parent did not exit");
  match List.assoc_opt 2 log with
  | Some (Lfi_runtime.Runtime.Exited 0) -> ()
  | _ -> Alcotest.fail "child did not exit 0"

let test_fork_isolation () =
  both_modes @@ fun () ->
  (* child increments a global then exits with it; parent waits and
     exits with its own (unchanged) copy + child status *)
  let code =
    "_start:\n\tadr x9, cell\n\tmovz x1, #5\n\tstr x1, [x9]\n\tsvc #7\n\tcbnz \
     x0, parent\n\tldr x1, [x9]\n\tadd x1, x1, #1\n\tstr x1, [x9]\n\tldr x0, \
     [x9]\n\tsvc #1\nparent:\n\tadr x2, status\n\tmov x0, x2\n\tsvc #8\n\tadr \
     x3, status\n\tldr w4, [x3]\n\tadr x9, cell\n\tldr x5, [x9]\n\tlsl x5, \
     x5, #8\n\tadd x0, x5, x4\n\tsvc #1\n\tb _start\n.data\ncell:\n\t.quad \
     0\nstatus:\n\t.quad 0\n"
  in
  (* parent: own cell (5) << 8 | child status (6) = 0x506 *)
  checki "isolation" 0x506 (exit_code (run_lfi code));
  (* the slot copy itself: fork a freshly loaded parent and compare
     the two regions page by page *)
  let module Memory = Lfi_emulator.Memory in
  let rt = Lfi_runtime.Runtime.create () in
  let mem = rt.Lfi_runtime.Runtime.mem in
  let elf = build code in
  let parent = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  let at (p : Lfi_runtime.Proc.t) off =
    Int64.add p.Lfi_runtime.Proc.base (Int64.of_int off)
  in
  let cell = data_offset elf and stack = Lfi_core.Layout.stack_top - 8 in
  (* the parent's translation now grants W on its data page: fork must
     take it back *)
  Memory.write mem (at parent cell) 8 5L;
  let child =
    match
      Lfi_runtime.Runtime.proc rt (Lfi_runtime.Runtime.do_fork rt parent)
    with
    | Some c -> c
    | None -> Alcotest.fail "fork made no child"
  in
  let pages (p : Lfi_runtime.Proc.t) =
    Memory.region_pages mem p.Lfi_runtime.Proc.base
    |> List.map (fun (idx, pg) ->
           ( Int64.sub (Memory.page_addr idx) p.Lfi_runtime.Proc.base,
             pg.Memory.perm,
             pg.Memory.data ))
  in
  let pp = pages parent and cp = pages child in
  checki "child has the parent's page count" (List.length pp) (List.length cp);
  List.iter2
    (fun (po, pperm, pdata) (co, cperm, cdata) ->
      checkb "same offset" true (Int64.equal po co);
      checkb "same permission" true (pperm = cperm);
      if not (Int64.equal co 0L) then
        checkb "same buffer, shared copy-on-write" true (pdata == cdata))
    pp cp;
  (* the call table is rebuilt for the child: unused entries trap into
     the child's own guard region, not the parent's *)
  let cbase = child.Lfi_runtime.Proc.base in
  checkb "child call table rebuilt" true
    (Int64.equal (Memory.read mem cbase 8)
       (Int64.add cbase (Int64.of_int Lfi_core.Layout.rtcall_table_size)));
  (* writes after the fork stay on their side, both ways, on a data
     page and on a stack page *)
  let read p off = Memory.read mem (at p off) 8 in
  Memory.write mem (at parent cell) 8 6L;
  Memory.write mem (at child stack) 8 7L;
  check64 "parent's data write unseen by the child" 5L (read child cell);
  check64 "child's stack write unseen by the parent" 0L (read parent stack);
  Memory.write mem (at child cell) 8 8L;
  Memory.write mem (at parent stack) 8 9L;
  check64 "parent data" 6L (read parent cell);
  check64 "child data" 8L (read child cell);
  check64 "parent stack" 9L (read parent stack);
  check64 "child stack" 7L (read child stack);
  checkb "zero page intact" true (zero_page_intact ())

let test_wait_echild () =
  let code = "_start:\n\tmovz x0, #0\n\tsvc #8\n\tsvc #1\n\tb _start\n" in
  checki "echild" (-10) (exit_code (run_lfi code))

let test_pipe_blocking () =
  (* parent writes after child already blocked reading *)
  let code =
    "_start:\n\tadr x0, fds\n\tsvc #6\n\tsvc #7\n\tcbnz x0, parent\n\
     child:\n\tadr x1, fds\n\tldr w0, [x1]\n\tadr x1, buf\n\tmovz x2, #1\n\t\
     svc #3\n\tadr x1, buf\n\tldrb w0, [x1]\n\tsvc #1\n\
     parent:\n\tadr x1, buf\n\tmovz x2, #65\n\tstrb w2, [x1]\n\tadr x3, \
     fds\n\tldr w0, [x3, #4]\n\tmovz x2, #1\n\tsvc #2\n\tadr x4, status\n\t\
     mov x0, x4\n\tsvc #8\n\tadr x4, status\n\tldr w0, [x4]\n\tsvc #1\n\tb \
     _start\n.data\nfds:\n\t.quad 0\nbuf:\n\t.quad 0\nstatus:\n\t.quad 0\n"
  in
  (* child exits with the byte it read (65); parent exits with child's
     status *)
  checki "pipe byte" 65 (exit_code (run_lfi code))

(* ---------------- scheduling ---------------- *)

let test_preemption_interleaves () =
  let config = { Lfi_runtime.Runtime.default_config with quantum = 1000 } in
  let rt = Lfi_runtime.Runtime.create ~config () in
  let elf =
    build
      "_start:\n\tmovz x1, #0\nloop:\n\tadd x1, x1, #1\n\tmovz x2, \
       #1600\n\tcmp x1, x2\n\tb.lt loop\n\tsvc #10\n\tmov x0, x0\n\tsvc \
       #1\n\tb _start\n"
  in
  let a = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  let b = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  let log = Lfi_runtime.Runtime.run rt in
  checkb "both exited" true
    (List.mem_assoc a.Lfi_runtime.Proc.pid log
    && List.mem_assoc b.Lfi_runtime.Proc.pid log);
  checkb "preempted" true (rt.Lfi_runtime.Runtime.preemptions > 0)

let test_sandbox_isolation () =
  (* two sandboxes write different values at the same offset; each must
     read back its own *)
  let mk v =
    build
      (Printf.sprintf
         "_start:\n\tadr x1, cell\n\tmovz x2, #%d\n\tstr x2, [x1]\n\tsvc \
          #9\n\tldr x0, [x1]\n\tsvc #1\n\tb _start\n.data\ncell:\n\t.quad 0\n"
         v)
  in
  let rt = Lfi_runtime.Runtime.create () in
  let a = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (mk 111) in
  let b = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (mk 222) in
  let log = Lfi_runtime.Runtime.run rt in
  checkb "a" true
    (List.assoc_opt a.Lfi_runtime.Proc.pid log = Some (Lfi_runtime.Runtime.Exited 111));
  checkb "b" true
    (List.assoc_opt b.Lfi_runtime.Proc.pid log = Some (Lfi_runtime.Runtime.Exited 222))

let test_slot_reuse () =
  (* a reaped child's slot must be recycled *)
  let code =
    "_start:\n\tsvc #7\n\tcbnz x0, parent\n\tmovz x0, #0\n\tsvc #1\n\
     parent:\n\tmovz x0, #0\n\tsvc #8\n\tsvc #7\n\tcbnz x0, parent2\n\tmovz \
     x0, #0\n\tsvc #1\nparent2:\n\tmovz x0, #0\n\tsvc #8\n\tmovz x0, #0\n\t\
     svc #1\n\tb _start\n"
  in
  let rt = Lfi_runtime.Runtime.create () in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (build code) in
  ignore (Lfi_runtime.Runtime.run rt);
  ignore p;
  (* two forks, but the second reuses the first child's slot *)
  checki "slots used" 3 rt.Lfi_runtime.Runtime.next_slot

(* ---------------- copy-on-write pages ---------------- *)

module Memory = Lfi_emulator.Memory

(* Two sandboxes each read the word just below their stack top, then
   store 77 there; a third only reads it.  Fresh stack pages share one
   zero buffer, so a store that reached it would make a later reader
   exit 77 instead of 0. *)
let test_cow_stack_isolation () =
  both_modes @@ fun () ->
  let prog store =
    build
      (Printf.sprintf
         "_start:\n\tsub sp, sp, #16\n\tldr x2, [sp]\n%s\tmov x0, x2\n\tsvc \
          #1\n\tb _start\n"
         (if store then "\tmovz x1, #77\n\tstr x1, [sp]\n" else ""))
  in
  let rt = Lfi_runtime.Runtime.create () in
  let load elf = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  let writers = [ load (prog true); load (prog true) ] in
  let reader = load (prog false) in
  let log = Lfi_runtime.Runtime.run rt in
  List.iter
    (fun (p : Lfi_runtime.Proc.t) ->
      checkb "read zero" true
        (List.assoc_opt p.Lfi_runtime.Proc.pid log
        = Some (Lfi_runtime.Runtime.Exited 0)))
    (reader :: writers);
  let slot_word (p : Lfi_runtime.Proc.t) =
    Memory.read rt.Lfi_runtime.Runtime.mem
      (Int64.add p.Lfi_runtime.Proc.base
         (Int64.of_int (Lfi_core.Layout.stack_top - 16)))
      8
  in
  List.iter (fun p -> check64 "writer's own stack" 77L (slot_word p)) writers;
  check64 "reader's untouched stack" 0L (slot_word reader);
  checkb "zero page intact" true (zero_page_intact ())

(* A read-only page that shares the zero buffer keeps faulting on
   write, from the sandbox and from the host, cached or not. *)
let test_cow_read_only_faults () =
  both_modes @@ fun () ->
  let off = 0x4000000 in
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build
         (Printf.sprintf
            "_start:\n\tmovz x1, #0x%x, lsl #16\n\tmovz x2, #1\n\tstr x2, \
             [x1]\n\tmovz x0, #0\n\tsvc #1\n\tb _start\n"
            (off lsr 16)))
  in
  let mem = rt.Lfi_runtime.Runtime.mem in
  let addr = Int64.add p.Lfi_runtime.Proc.base (Int64.of_int off) in
  Memory.map mem ~addr ~len:Memory.page_size ~perm:Memory.perm_r;
  check64 "reads zero" 0L (Memory.read mem addr 8);
  let host_write () =
    match Memory.write mem addr 8 1L with
    | exception Memory.Fault f ->
        checks "host write refused" "no write permission" f.Memory.reason;
        check64 "at the address written" addr f.Memory.addr
    | () -> Alcotest.fail "write to a read-only shared page succeeded"
  in
  host_write ();
  (match Lfi_runtime.Runtime.run_one rt p with
  | Lfi_runtime.Runtime.Killed why, _, _, _ ->
      checkb "sandbox store refused" true (contains why "no write permission")
  | Lfi_runtime.Runtime.Exited c, _, _, _ ->
      Alcotest.failf "store to a read-only page exited %d" c);
  host_write ();
  check64 "still zero" 0L (Memory.read mem addr 8);
  checkb "zero page intact" true (zero_page_intact ())

(* A program patches the [add] it just ran into [add x0, x0, #100] and
   runs it again: exit 102 if the store dropped the decoded block, 51
   if a stale decode kept running.  Its code page is writable and
   executable and shares its buffer (a baseline keeps it by
   reference), so the store first takes a private copy — and must still
   invalidate. *)
let test_cow_wx_store_invalidates () =
  both_modes @@ fun () ->
  let word =
    Bytes.get_int32_le
      (Assemble.assemble_string "_start:\n\tadd x0, x0, #100\n").Assemble.text 0
    |> Int32.to_int |> fun w -> w land 0xFFFFFFFF
  in
  let elf =
    build
      (Printf.sprintf
         "_start:\n\tmovz x0, #1\n\tadr x1, patch\n\tmovz w2, #0x%x\n\tmovk \
          w2, #0x%x, lsl #16\npatch:\n\tadd x0, x0, #1\n\tcmp x0, #50\n\tb.gt \
          done\n\tstr w2, [x1]\n\tb patch\ndone:\n\tsvc #1\n\tb _start\n"
         (word land 0xFFFF) (word lsr 16))
  in
  let rt = Lfi_runtime.Runtime.create () in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  let mem = rt.Lfi_runtime.Runtime.mem and base = p.Lfi_runtime.Proc.base in
  let text =
    match Lfi_elf.Elf.code_segment elf with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  let code = Int64.add base (Int64.of_int text.vaddr) in
  Memory.protect mem ~addr:code ~len:(Bytes.length text.data)
    ~perm:{ Memory.r = true; w = true; x = true };
  let idx = Memory.page_index code in
  let shared =
    match List.assoc_opt idx (Memory.mark_clean mem base) with
    | Some pg -> pg.Memory.data
    | None -> Alcotest.fail "code page not mapped"
  in
  let original = Bytes.copy shared in
  checki "patched code ran" 102 (exit_code (Lfi_runtime.Runtime.run_one rt p));
  checkb "the shared buffer is untouched" true (Bytes.equal shared original);
  checkb "the code page got its own copy" true
    (match Memory.find_page_by_index mem idx with
    | Some pg -> pg.Memory.data != shared
    | None -> false);
  checkb "and was recorded" true (List.mem idx (Memory.take_changes mem base))

(* crashy's wild read kills it mid-run; nothing it did reached the
   shared zero page. *)
let test_cow_zero_page_after_crash () =
  both_modes @@ fun () ->
  let w =
    match Lfi_workloads.Registry.find "crashy" with
    | Some w -> w
    | None -> Alcotest.fail "crashy workload not registered"
  in
  let src = Lfi_minic.Compile.compile w.Lfi_workloads.Common.program in
  let elf =
    Lfi_elf.Elf.of_image (Assemble.assemble (fst (Lfi_core.Rewriter.rewrite src)))
  in
  let rt = Lfi_runtime.Runtime.create () in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  (match Lfi_runtime.Runtime.run_one rt p with
  | Lfi_runtime.Runtime.Killed _, _, _, _ -> ()
  | Lfi_runtime.Runtime.Exited c, _, _, _ ->
      Alcotest.failf "crashy exited %d instead of faulting" c);
  checkb "zero page intact" true (zero_page_intact ())

(* Bulk copies go a page at a time but keep the byte-wise contract: a
   fault names the first inaccessible byte with everything before it
   written, and a copy into an executable page invalidates its code. *)
let test_bulk_copy_pagewise () =
  let mem = Memory.create () in
  let ps = Memory.page_size in
  Memory.map mem ~addr:0x10000L ~len:(2 * ps) ~perm:Memory.perm_rw;
  Memory.map mem ~addr:(Int64.of_int (0x10000 + (2 * ps))) ~len:ps
    ~perm:Memory.perm_r;
  let start = Int64.of_int (0x10000 + ps - 5) in
  let src = Bytes.init (ps + 20) (fun i -> Char.chr (1 + (i mod 250))) in
  (match Memory.write_bytes mem start src with
  | exception Memory.Fault f ->
      check64 "first bad address" (Int64.of_int (0x10000 + (2 * ps))) f.Memory.addr;
      checks "reason" "no write permission" f.Memory.reason
  | () -> Alcotest.fail "copy into a read-only page succeeded");
  checkb "bytes before the fault written" true
    (Bytes.equal (Memory.read_bytes mem start (ps + 5)) (Bytes.sub src 0 (ps + 5)));
  (match Memory.read_bytes mem (Int64.of_int (0x10000 + (3 * ps) - 4)) 8 with
  | exception Memory.Fault f ->
      check64 "read names the first unmapped byte"
        (Int64.of_int (0x10000 + (3 * ps))) f.Memory.addr
  | _ -> Alcotest.fail "read past the mapping succeeded");
  let changed = ref [] in
  mem.Memory.on_code_change <- (fun a n -> changed := (a, n) :: !changed);
  Memory.protect mem ~addr:0x10000L ~len:ps
    ~perm:{ Memory.r = true; w = true; x = true };
  changed := [];
  Memory.write_bytes mem 0x10010L (Bytes.make 8 '\001');
  checkb "copy into an executable page invalidates it" true
    (List.mem (0x10010L, 8) !changed);
  checkb "zero page intact" true (zero_page_intact ())

(* ---------------- fd table allocation ---------------- *)

let test_fd_alloc_reuse () =
  (* POSIX semantics: alloc_fd hands out the lowest free descriptor
     >= 3, so closed descriptors are reused instead of leaking fd
     numbers across a long-lived (pool-style) process *)
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build "_start:\n\tsvc #1\n\tb _start\n")
  in
  let module Proc = Lfi_runtime.Proc in
  checki "first" 3 (Proc.alloc_fd p Lfi_runtime.Vfs.Console_out);
  checki "second" 4 (Proc.alloc_fd p Lfi_runtime.Vfs.Console_out);
  checki "third" 5 (Proc.alloc_fd p Lfi_runtime.Vfs.Console_out);
  checki "close mid" 0 (Proc.close_fd p 4);
  checki "hole refilled" 4 (Proc.alloc_fd p Lfi_runtime.Vfs.Console_out);
  checki "then past high-water" 6 (Proc.alloc_fd p Lfi_runtime.Vfs.Console_out);
  checki "close lowest" 0 (Proc.close_fd p 3);
  checki "close highest" 0 (Proc.close_fd p 6);
  checki "lowest wins" 3 (Proc.alloc_fd p Lfi_runtime.Vfs.Console_out);
  checki "close unknown is ebadf" Lfi_runtime.Vfs.ebadf (Proc.close_fd p 17);
  (* next_fd stays a high-water mark for dup_fds *)
  checki "high-water kept" 7 p.Proc.next_fd

(* ---------------- the shared run queue ---------------- *)

module Runq = Lfi_sched.Runq

let test_runq_fifo () =
  let q = Runq.create ~capacity:2 () in
  List.iter (Runq.push q) [ 1; 2; 3; 4; 5 ];
  (* pushes past capacity grow the ring without reordering *)
  checkb "order kept across growth" true (Runq.to_list q = [ 1; 2; 3; 4; 5 ]);
  checkb "pop head" true (Runq.pop q = Some 1);
  Runq.push q 6;
  checkb "fifo" true (Runq.to_list q = [ 2; 3; 4; 5; 6 ]);
  Runq.remove q 4;
  checkb "remove keeps order" true (Runq.to_list q = [ 2; 3; 5; 6 ])

let test_runq_promote () =
  let q = Runq.create () in
  List.iter (Runq.push q) [ 1; 2; 3 ];
  (* the direct-yield path: the handoff target runs next *)
  Runq.promote q 3;
  checkb "queued target moved to head" true (Runq.to_list q = [ 3; 1; 2 ]);
  Runq.promote q 9;
  checkb "unqueued target enqueued at head" true
    (Runq.to_list q = [ 9; 3; 1; 2 ])

let test_runq_select_rotation () =
  let q = Runq.create () in
  List.iter (Runq.push q) [ 1; 2; 3; 4 ];
  (* blocked ids are skipped but keep their relative order; the chosen
     id requeues at the tail behind the unscanned rest *)
  let sel = Runq.select q ~keep:(fun _ -> true) ~runnable:(fun x -> x = 3) in
  checkb "picks first runnable" true (sel = Some 3);
  checkb "rotation" true (Runq.to_list q = [ 4; 1; 2; 3 ]);
  (* dead ids fall out during the scan *)
  let sel = Runq.select q ~keep:(fun x -> x <> 4) ~runnable:(fun _ -> true) in
  checkb "drops dead, picks next" true (sel = Some 1);
  checkb "dead gone" true (Runq.to_list q = [ 2; 3; 1 ]);
  (* nothing runnable: compacts to kept ids, original order, returns
     nothing *)
  let sel = Runq.select q ~keep:(fun x -> x <> 2) ~runnable:(fun _ -> false) in
  checkb "none runnable" true (sel = None);
  checkb "compacted in order" true (Runq.to_list q = [ 3; 1 ])

let mk name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "runtime"
    [
      ( "calls",
        [
          mk "exit" test_exit;
          mk "write stdout" test_write_stdout;
          mk "getpid" test_getpid;
          mk "unused table entry traps" test_unknown_syscall;
        ] );
      ( "loading",
        [
          mk "rejects unverified" test_load_rejects_unverified;
          mk "rejects second code segment"
            test_load_rejects_second_code_segment;
          mk "rejects cross-slot segment" test_load_rejects_cross_slot_segment;
          mk "rejects huge memsz" test_load_rejects_huge_memsz;
          mk "native skips verification" test_native_skips_verification;
        ] );
      ( "vfs",
        [
          mk "file read" test_file_read;
          mk "access control" test_access_control;
          mk "file write" test_file_write_and_contents;
        ] );
      ("memory", [ mk "mmap" test_mmap; mk "brk" test_brk ]);
      ( "copy-on-write",
        [
          mk "stack pages isolated" test_cow_stack_isolation;
          mk "read-only shared page faults" test_cow_read_only_faults;
          mk "w+x store invalidates" test_cow_wx_store_invalidates;
          mk "zero page after crash" test_cow_zero_page_after_crash;
          mk "bulk copies page-wise" test_bulk_copy_pagewise;
        ] );
      ("fds", [ mk "alloc reuses closed" test_fd_alloc_reuse ]);
      ("faults", [ mk "unmapped heap" test_guard_page_fault ]);
      ( "processes",
        [
          mk "fork pids" test_fork_pids;
          mk "fork isolation" test_fork_isolation;
          mk "wait echild" test_wait_echild;
          mk "pipe blocking" test_pipe_blocking;
        ] );
      ( "scheduling",
        [
          mk "preemption" test_preemption_interleaves;
          mk "sandbox isolation" test_sandbox_isolation;
          mk "slot reuse" test_slot_reuse;
        ] );
      ( "runq",
        [
          mk "fifo + growth" test_runq_fifo;
          mk "promote" test_runq_promote;
          mk "select rotation" test_runq_select_rotation;
        ] );
    ]
