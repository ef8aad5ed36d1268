(* lfi-verify: statically verify an LFI ELF executable.

   Reads the ELF, decodes the executable segment, and runs the single
   linear verification pass of Section 5.2.  Exit code 0 = safe to
   load. *)

open Cmdliner

let read_bytes path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let run input no_loads no_exclusives quiet =
  let config =
    { Lfi_verifier.Verifier.default_config with
      sandbox_loads = not no_loads;
      allow_exclusives = not no_exclusives }
  in
  match Lfi_elf.Elf.read (read_bytes input) with
  | exception Lfi_elf.Elf.Bad_elf msg ->
      Printf.eprintf "%s: bad ELF: %s\n" input msg;
      exit 2
  | elf -> (
      match Lfi_elf.Elf.code_segment elf with
      | Error msg ->
          Printf.eprintf "%s: %s\n" input msg;
          exit 2
      | Ok seg -> (
          match
            Lfi_verifier.Verifier.verify ~config ~code:seg.Lfi_elf.Elf.data ()
          with
          | Ok r ->
              if not quiet then
                Printf.printf "%s: OK (%d instructions, %d bytes)\n" input
                  r.checked r.bytes;
              exit 0
          | Error violations ->
              Printf.eprintf "%s: REJECTED (%d violations)\n" input
                (List.length violations);
              List.iteri
                (fun k v ->
                  if k < 20 then
                    Format.eprintf "  %a@." Lfi_verifier.Verifier.pp_violation
                      v)
                violations;
              exit 1))

let cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"BINARY") in
  let no_loads =
    Arg.(value & flag & info [ "no-loads" ]
           ~doc:"Verify a stores-and-jumps-only binary.")
  in
  let no_exclusives =
    Arg.(value & flag & info [ "no-exclusives" ]
           ~doc:"Reject LL/SC instructions.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ]) in
  Cmd.v
    (Cmd.info "lfi-verify" ~doc:"Verify an LFI ELF binary")
    Term.(const run $ input $ no_loads $ no_exclusives $ quiet)

let () = exit (Cmd.eval cmd)
