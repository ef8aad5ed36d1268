(* Unit and property tests for the ARM64 layer: registers, the
   instruction ADT, parser/printer, encoder/decoder, assembler. *)

open Lfi_arm64
module Gen = Lfi_fuzz.Gen_insn

let check = Alcotest.check
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------------- registers ---------------- *)

let test_reg_roundtrip () =
  List.iter
    (fun s ->
      match Reg.of_string s with
      | Some r -> checks s s (Reg.to_string r)
      | None -> Alcotest.failf "could not parse %s" s)
    [ "x0"; "x30"; "w0"; "w30"; "xzr"; "wzr"; "sp"; "wsp"; "x21" ]

let test_reg_invalid () =
  List.iter
    (fun s -> checkb s true (Reg.of_string s = None))
    [ "x31"; "w31"; "x-1"; "y0"; "x"; ""; "x300"; "d0" ]

let test_reg_lr_alias () =
  checkb "lr" true (Reg.of_string "lr" = Some (Reg.x 30))

let test_reserved () =
  List.iter
    (fun n -> checkb (Printf.sprintf "x%d" n) true (Reg.is_reserved (Reg.x n)))
    [ 18; 21; 22; 23; 24 ];
  List.iter
    (fun n -> checkb (Printf.sprintf "x%d" n) false (Reg.is_reserved (Reg.x n)))
    [ 0; 17; 19; 20; 25; 30 ];
  checkb "sp" false (Reg.is_reserved Reg.sp);
  checkb "xzr" false (Reg.is_reserved Reg.xzr)

let test_fp_reg () =
  List.iter
    (fun s ->
      match Reg.Fp.of_string s with
      | Some r -> checks s s (Reg.Fp.to_string r)
      | None -> Alcotest.failf "could not parse %s" s)
    [ "d0"; "d31"; "s5"; "q17" ];
  checki "d bytes" 8 (Reg.Fp.bytes (Reg.Fp.v Reg.Fp.D 0));
  checki "q bytes" 16 (Reg.Fp.bytes (Reg.Fp.v Reg.Fp.Q 3))

(* ---------------- instruction helpers ---------------- *)

let parse s =
  match Parser.parse_insn s with
  | Ok i -> i
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_writes () =
  let w s expect =
    let i = parse s in
    let got =
      Insn.writes i
      |> List.filter_map (function `R (_, n) -> Some n | `Sp -> None)
      |> List.sort compare
    in
    check Alcotest.(list int) s (List.sort compare expect) got
  in
  w "add x0, x1, #4" [ 0 ];
  w "ldp x4, x5, [sp, #16]" [ 4; 5 ];
  w "ldr x3, [x7, #8]!" [ 3; 7 ];
  w "str x3, [x7], #8" [ 7 ];
  w "bl somewhere" [ 30 ];
  w "blr x9" [ 30 ];
  w "cmp x1, x2" [];
  w "stxr w5, x6, [x7]" [ 5 ];
  w "mul x2, x3, x4" [ 2 ]

let test_writes_sp () =
  checkb "mov sp" true (Insn.writes_sp (parse "mov sp, x1"));
  checkb "sub sp" true (Insn.writes_sp (parse "sub sp, sp, #16"));
  checkb "pre-index" true (Insn.writes_sp (parse "str x0, [sp, #-16]!"));
  checkb "plain store" false (Insn.writes_sp (parse "str x0, [sp, #8]"))

let test_branch_classes () =
  checkb "b" true (Insn.is_branch (parse "b lbl"));
  checkb "ret" true (Insn.is_indirect_branch (parse "ret"));
  checkb "br" true (Insn.is_indirect_branch (parse "br x0"));
  checkb "bl" false (Insn.is_indirect_branch (parse "bl f"));
  checkb "falls" false (Insn.falls_through (parse "b lbl"));
  checkb "bl falls" true (Insn.falls_through (parse "bl f"));
  checkb "bcond falls" true (Insn.falls_through (parse "b.eq lbl"))

let test_access_bytes () =
  List.iter
    (fun (s, n) -> checki s n (Insn.access_bytes (parse s)))
    [
      ("ldr x0, [x1]", 8); ("ldr w0, [x1]", 4); ("ldrb w0, [x1]", 1);
      ("ldrh w0, [x1]", 2); ("ldp x0, x1, [x2]", 16); ("ldp w0, w1, [x2]", 8);
      ("ldr d0, [x1]", 8); ("ldr q0, [x1]", 16); ("str s0, [x1]", 4);
    ]

(* ---------------- parser / printer ---------------- *)

let corpus =
  [
    (* canonical form on the left; aliases map onto it *)
    ("add x0, x1, #4", "add x0, x1, #4");
    ("mov x0, x1", "mov x0, x1");
    ("orr x0, xzr, x1", "mov x0, x1");
    ("neg x2, x3", "neg x2, x3");
    ("sub x2, xzr, x3", "neg x2, x3");
    ("cmp w1, #7", "cmp w1, #7");
    ("subs wzr, w1, #7", "cmp w1, #7");
    ("mov x0, #42", "movz x0, #42");
    ("mov x0, #-3", "movn x0, #2");
    ("lsl x1, x2, #4", "ubfm x1, x2, #60, #59");
    ("lsr w1, w2, #4", "ubfm w1, w2, #4, #31");
    ("asr x1, x2, #63", "sbfm x1, x2, #63, #63");
    ("uxtb w0, w1", "ubfm w0, w1, #0, #7");
    ("sxtw x0, w1", "sbfm x0, x1, #0, #31");
    ("ubfx x1, x2, #8, #8", "ubfm x1, x2, #8, #15");
    ("mul x0, x1, x2", "mul x0, x1, x2");
    ("cset x0, gt", "csinc x0, xzr, xzr, le");
    ("cinc x1, x2, lt", "csinc x1, x2, x2, ge");
    ("mov sp, x9", "mov sp, x9");
    ("mov w22, wsp", "mov w22, wsp");
    ("add sp, x21, x22", "add sp, x21, x22, uxtx");
    ("ldr x0, [x1, #0]", "ldr x0, [x1]");
    ("ret x30", "ret");
    ("b.hs target", "b.cs target");
    ("dmb sy", "dmb ish");
    ("smull x0, w1, w2", "smull x0, w1, w2");
    ("ccmp x1, x2, #4, ne", "ccmp x1, x2, #4, ne");
    ("ccmn w1, #5, #0, eq", "ccmn w1, #5, #0, eq");
  ]

let test_parse_aliases () =
  List.iter
    (fun (input, canonical) ->
      checks input canonical (Printer.to_string (parse input)))
    corpus

let test_parse_errors () =
  List.iter
    (fun s ->
      match Parser.parse_insn s with
      | Ok i -> Alcotest.failf "%S should not parse (got %s)" s (Printer.to_string i)
      | Error _ -> ())
    [
      "frobnicate x0"; "add x0"; "ldr x0, [w1]"; "add x0, x1, x2, x3";
      "ldrb x0, [x1]"; "strh x3, [x1]"; "ldp x0, w1, [x2]";
      "tbz x0, lbl"; "svc"; "ldr x0, [x1, #8]!!";
    ]

let test_parse_file () =
  let text =
    "// comment\nfoo:\n\tadd x0, x1, #1\n.data\nbar: .quad 1, 2\n\t.asciz \
     \"hi\"\n"
  in
  let src = Parser.parse_string_exn text in
  checki "items" 6 (List.length src);
  checki "insns" 1 (Source.insn_count src)

let prop_print_parse =
  QCheck.Test.make ~count:2000 ~name:"parse (print i) = i" Gen.arbitrary_insn
    (fun i ->
      let printed = Printer.to_string i in
      match Parser.parse_insn printed with
      | Ok i2 ->
          if Insn.equal i i2 then true
          else
            QCheck.Test.fail_reportf "%s -> reparsed as %s" printed
              (Printer.to_string i2)
      | Error e -> QCheck.Test.fail_reportf "%s -> parse error: %s" printed e)

(* ---------------- encoder / decoder ---------------- *)

(* Golden encodings cross-checked against GNU binutils output. *)
let golden =
  [
    ("ret", 0xD65F03C0);
    ("nop", 0xD503201F);
    ("add x0, x1, #4", 0x91001020);
    ("sub sp, sp, #32", 0xD10083FF);
    ("mov x0, x1", 0xAA0103E0);
    ("ldr x0, [x1]", 0xF9400020);
    ("ldr x0, [x1, #8]", 0xF9400420);
    ("str w2, [sp, #12]", 0xB9000FE2);
    ("ldp x29, x30, [sp], #16", 0xA8C17BFD);
    ("stp x29, x30, [sp, #-16]!", 0xA9BF7BFD);
    ("blr x9", 0xD63F0120);
    ("br x16", 0xD61F0200);
    ("svc #0", 0xD4000001);
    ("movz x5, #512", 0xD2804005);
    ("add x18, x21, w0, uxtw", 0x8B2042B2);
    ("ldr x3, [x21, w4, uxtw]", 0xF8644AA3);
    ("mul x0, x1, x2", 0x9B027C20);
    ("sdiv x3, x4, x5", 0x9AC50C83);
    ("cbz x0, .+8", 0xB4000040);
    ("b .+16", 0x14000004);
    ("bl .-4", 0x97FFFFFF);
    ("fadd d0, d1, d2", 0x1E622820);
    ("scvtf d1, x2", 0x9E620041);
    ("ldxr x0, [x1]", 0xC85F7C20);
    ("stxr w2, x3, [x4]", 0xC8027C83);
    ("and x0, x1, #255", 0x92401C20);
    ("smull x0, w1, w2", 0x9B227C20);
    ("umull x3, w4, w5", 0x9BA57C83);
    ("smaddl x0, w1, w2, x3", 0x9B220C20);
    ("umsubl x6, w7, w8, x9", 0x9BA8A4E6);
    ("ccmp x1, x2, #4, ne", 0xFA421024);
    ("ccmp w1, #5, #0, eq", 0x7A450820);
    ("ccmn x3, x4, #8, lt", 0xBA44B068);
  ]

let test_golden_encodings () =
  List.iter
    (fun (asm, word) ->
      match Encode.encode (parse asm) with
      | Ok w ->
          if w <> word then
            Alcotest.failf "%s: got %08X, want %08X" asm w word
      | Error e -> Alcotest.failf "%s: encode error %s" asm e)
    golden

let test_golden_decodings () =
  List.iter
    (fun (asm, word) ->
      let i = Decode.decode word in
      checks asm (Printer.to_string (parse asm)) (Printer.to_string i))
    golden

let test_encode_rejects () =
  List.iter
    (fun s ->
      match Encode.encode (parse s) with
      | Ok w -> Alcotest.failf "%S should not encode (got %08X)" s w
      | Error _ -> ())
    [
      "add x0, x1, #4096" (* imm12 overflow *);
      "and x0, x1, #77" (* not a bitmask immediate *);
      "ldr x0, [x1, #32768]" (* offset beyond scaled imm12 *);
      "ldp x0, x1, [x2, #4]" (* unaligned pair offset *);
      "b .+2" (* misaligned branch *);
      "movz x0, #65536";
      "tbz x0, #64, .+8";
    ]

let test_decode_unknown () =
  (* SVE and other unsupported encodings must decode to Udf *)
  List.iter
    (fun w ->
      match Decode.decode w with
      | Insn.Udf _ -> ()
      | i -> Alcotest.failf "%08X decoded to %s" w (Printer.to_string i))
    [ 0xE5804000 (* SVE st1w *); 0x00000012; 0xFFFFFFFF ]

let prop_encode_decode =
  QCheck.Test.make ~count:3000 ~name:"decode (encode i) = i"
    Gen.arbitrary_insn (fun i ->
      match Encode.encode i with
      | Error e ->
          QCheck.Test.fail_reportf "%s: encode error %s" (Printer.to_string i) e
      | Ok w -> (
          match Decode.decode w with
          | i2 when Insn.equal i i2 -> true
          | i2 ->
              QCheck.Test.fail_reportf "%s -> %08X -> %s"
                (Printer.to_string i) w (Printer.to_string i2)))

let prop_bitmask =
  QCheck.Test.make ~count:1000 ~name:"bitmask imm encode/decode"
    (QCheck.make (Gen.bitmask_imm 64))
    (fun v ->
      match Encode.encode_bitmask ~datasize:64 v with
      | Error e -> QCheck.Test.fail_reportf "%d: %s" v e
      | Ok (n, immr, imms) -> (
          match Encode.decode_bitmask ~datasize:64 ~n ~immr ~imms with
          | Some v2 when v2 = v -> true
          | Some v2 -> QCheck.Test.fail_reportf "%x -> %x" v v2
          | None -> QCheck.Test.fail_reportf "%x: decode failed" v))

(* ---------------- assembler ---------------- *)

let test_assemble_branches () =
  let img =
    Assemble.assemble_string
      "_start:\n\tb end\nmid:\n\tnop\n\tb mid\nend:\n\tret\n"
  in
  (* b end = +12, b mid = -4 *)
  let w0 = Int32.to_int (Bytes.get_int32_le img.Assemble.text 0) land 0xFFFFFFFF in
  let w2 = Int32.to_int (Bytes.get_int32_le img.Assemble.text 8) land 0xFFFFFFFF in
  checki "b end" 0x14000003 w0;
  checki "b mid" 0x17FFFFFF w2

let test_assemble_data () =
  let img =
    Assemble.assemble_string
      "_start:\n\tret\n.data\nvals:\n\t.quad 7\n\t.word 5\n\t.byte 1, 2\n\
       \t.asciz \"ab\"\nafter:\n\t.zero 4\n"
  in
  checki "text" 4 (Bytes.length img.Assemble.text);
  let q = Bytes.get_int64_le img.Assemble.data 0 in
  checkb "quad" true (Int64.equal q 7L);
  checki "word" 5 (Int32.to_int (Bytes.get_int32_le img.Assemble.data 8));
  checki "byte" 1 (Bytes.get_uint8 img.Assemble.data 12);
  checki "ascii" (Char.code 'a') (Bytes.get_uint8 img.Assemble.data 14);
  match Assemble.symbol_address img "after" with
  | Some a -> checki "after addr" (img.Assemble.data_origin + 17) a
  | None -> Alcotest.fail "no symbol 'after'"

let test_assemble_symbol_data () =
  (* .quad of a symbol stores its sandbox-relative address *)
  let img =
    Assemble.assemble_string
      "_start:\n\tret\n.data\nptr:\n\t.quad target\ntarget:\n\t.quad 0\n"
  in
  let stored = Int64.to_int (Bytes.get_int64_le img.Assemble.data 0) in
  checki "ptr value" (img.Assemble.data_origin + 8) stored

let test_assemble_adr () =
  let img =
    Assemble.assemble_string "_start:\n\tadr x0, msg\n\tret\n.data\nmsg:\n\t.byte 65\n"
  in
  (* adr offset = data_origin - origin *)
  match Assemble.symbol_address img "msg" with
  | Some a -> checkb "adr target" true (a = img.Assemble.data_origin)
  | None -> Alcotest.fail "no msg"

let test_assemble_errors () =
  let fails text =
    match Assemble.assemble_string text with
    | exception Assemble.Error _ -> ()
    | _ -> Alcotest.failf "should not assemble: %s" text
  in
  fails "_start:\n\tb missing\n";
  fails "dup:\ndup:\n\tret\n";
  fails "_start:\n\tadd x0, x1, #99999\n"

let test_elf_roundtrip () =
  let img = Assemble.assemble_string "_start:\n\tret\n.data\nd:\n\t.quad 9\n" in
  let elf = Lfi_elf.Elf.of_image img in
  let written = Lfi_elf.Elf.write elf in
  let back = Lfi_elf.Elf.read written in
  checki "entry" elf.Lfi_elf.Elf.entry back.Lfi_elf.Elf.entry;
  checki "segments" 2 (List.length back.Lfi_elf.Elf.segments);
  (match Lfi_elf.Elf.text_segment back with
  | Some seg -> checkb "text" true (Bytes.equal seg.Lfi_elf.Elf.data img.Assemble.text)
  | None -> Alcotest.fail "no text segment");
  (* corrupt magic *)
  Bytes.set written 0 'X';
  match Lfi_elf.Elf.read written with
  | exception Lfi_elf.Elf.Bad_elf _ -> ()
  | _ -> Alcotest.fail "bad magic accepted"

(* [Elf.read] decodes untrusted bytes, so its only failure is
   [Bad_elf].  Mutate 1-4 bytes of the headers (ELF header, program
   headers, section headers) of an image that carries every optional
   section — .symtab, .strtab, .shstrtab and the .lfi_sites sidecar —
   under a fixed seed; any other exception fails the test. *)
let test_elf_read_total () =
  let native =
    Parser.parse_string_exn
      "_start:\n\tadr x1, buf\n\tstr x0, [x1]\n\tldr x2, [x1]\n\
       \tmovz x0, #0\n\tsvc #1\n.data\nbuf:\n\t.quad 0\n"
  in
  let rewritten, stats = Lfi_core.Rewriter.rewrite native in
  let sites =
    Lfi_core.Rewriter.resolve_sites ~input:native ~output:rewritten stats
  in
  let elf = Lfi_elf.Elf.of_image ~sites (Assemble.assemble rewritten) in
  checkb "image has sites" true (elf.Lfi_elf.Elf.sites <> []);
  let image = Lfi_elf.Elf.write elf in
  let len = Bytes.length image in
  let u16 o = Bytes.get_uint16_le image o in
  let shoff = Int64.to_int (Bytes.get_int64_le image 40) in
  (* every header byte: ehdr + phdrs, then the section header table *)
  let headers =
    Array.append
      (Array.init (64 + (u16 56 * u16 54)) Fun.id)
      (Array.init (min (u16 60 * u16 58) (len - shoff)) (fun i -> shoff + i))
  in
  let rng = Random.State.make [| 0x1f |] in
  let parsed = ref 0 and rejected = ref 0 in
  for case = 1 to 2000 do
    let b = Bytes.copy image in
    for _ = 1 to 1 + Random.State.int rng 4 do
      let off = headers.(Random.State.int rng (Array.length headers)) in
      Bytes.set_uint8 b off (Random.State.int rng 256)
    done;
    match Lfi_elf.Elf.read b with
    | _ -> incr parsed
    | exception Lfi_elf.Elf.Bad_elf _ -> incr rejected
    | exception e ->
        Alcotest.failf "case %d: Elf.read raised %s" case
          (Printexc.to_string e)
  done;
  checki "every case parsed or rejected" 2000 (!parsed + !rejected);
  checkb "some mutants rejected" true (!rejected > 0)

let () =
  Alcotest.run "arm64"
    [
      ( "reg",
        [
          Alcotest.test_case "roundtrip" `Quick test_reg_roundtrip;
          Alcotest.test_case "invalid" `Quick test_reg_invalid;
          Alcotest.test_case "lr alias" `Quick test_reg_lr_alias;
          Alcotest.test_case "reserved" `Quick test_reserved;
          Alcotest.test_case "fp" `Quick test_fp_reg;
        ] );
      ( "insn",
        [
          Alcotest.test_case "writes" `Quick test_writes;
          Alcotest.test_case "writes sp" `Quick test_writes_sp;
          Alcotest.test_case "branch classes" `Quick test_branch_classes;
          Alcotest.test_case "access bytes" `Quick test_access_bytes;
        ] );
      ( "parser",
        [
          Alcotest.test_case "aliases" `Quick test_parse_aliases;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "file" `Quick test_parse_file;
          QCheck_alcotest.to_alcotest prop_print_parse;
        ] );
      ( "encode",
        [
          Alcotest.test_case "golden encodings" `Quick test_golden_encodings;
          Alcotest.test_case "golden decodings" `Quick test_golden_decodings;
          Alcotest.test_case "rejects" `Quick test_encode_rejects;
          Alcotest.test_case "unknown decodes to udf" `Quick test_decode_unknown;
          QCheck_alcotest.to_alcotest prop_encode_decode;
          QCheck_alcotest.to_alcotest prop_bitmask;
        ] );
      ( "assemble",
        [
          Alcotest.test_case "branches" `Quick test_assemble_branches;
          Alcotest.test_case "data" `Quick test_assemble_data;
          Alcotest.test_case "symbol data" `Quick test_assemble_symbol_data;
          Alcotest.test_case "adr" `Quick test_assemble_adr;
          Alcotest.test_case "errors" `Quick test_assemble_errors;
          Alcotest.test_case "elf roundtrip" `Quick test_elf_roundtrip;
          Alcotest.test_case "elf read is total" `Quick test_elf_read_total;
        ] );
    ]
