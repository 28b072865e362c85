(* CLI driver for the project's two analysis engines, run in one pass:
   the syntactic linter ({!Lint}) over the given source paths (default
   lib, bin and bench), then the whole-program typedtree analyzer
   ({!Analysis}) over the .cmt files dune produced for lib/. Exits 1
   when any error-severity diagnostic survives suppression, 0
   otherwise (warnings don't fail the build). When no .cmt files are
   found the typedtree pass is skipped with a message on stderr, so
   the gate degrades cleanly on trees that were never built. *)

let usage = "pathsel-lint [--format=text|json|sarif] [--root DIR] [path ...]"

type format = Text | Json | Sarif

let rules = Lint.rules @ Analysis.rules

let () =
  let format = ref Text in
  let root = ref None in
  let paths = ref [] in
  let bad_usage msg =
    prerr_endline ("pathsel-lint: " ^ msg);
    prerr_endline usage;
    exit 64
  in
  let format_of = function
    | "json" -> Json
    | "text" -> Text
    | "sarif" -> Sarif
    | f -> bad_usage ("unknown format " ^ f)
  in
  let rec parse = function
    | [] -> ()
    | "--format" :: fmt :: rest ->
      format := format_of fmt;
      parse rest
    | arg :: rest when String.starts_with ~prefix:"--format=" arg ->
      format := format_of (String.sub arg 9 (String.length arg - 9));
      parse rest
    | "--root" :: dir :: rest ->
      root := Some dir;
      parse rest
    | ("--help" | "-h") :: _ ->
      print_endline usage;
      print_endline "rules:";
      List.iter
        (fun (name, sev, doc) ->
          Printf.printf "  %-22s %-7s %s\n" name (Lint.severity_string sev) doc)
        rules;
      exit 0
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      bad_usage ("unknown option " ^ arg)
    | p :: rest ->
      paths := p :: !paths;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !root with Some d -> Sys.chdir d | None -> ());
  let paths =
    match List.rev !paths with [] -> [ "lib"; "bin"; "bench" ] | ps -> ps
  in
  (* the repo root keeps lib's cmts under _build/default; inside a dune
     action the cwd is the build tree itself *)
  let cmt_root =
    if Sys.file_exists "_build/default/lib" then "_build/default/lib" else "lib"
  in
  let cmts = Analysis.find_cmts cmt_root in
  if cmts = [] then
    Printf.eprintf
      "pathsel-lint: no .cmt files under %s — build first (dune build); skipping \
       whole-program analysis\n"
      cmt_root;
  let diags = Lint.lint_paths paths @ Analysis.analyze_cmts cmts in
  (match !format with
   | Json -> print_endline (Lint.render_json diags)
   | Sarif -> print_endline (Lint.render_sarif ~tool:"pathsel-lint" ~rules diags)
   | Text ->
     List.iter (fun d -> print_endline (Lint.render_text d)) diags;
     let errs =
       List.length (List.filter (fun d -> d.Lint.severity = Lint.Error) diags)
     in
     let warns = List.length diags - errs in
     if diags <> [] then
       Printf.printf "%d error%s, %d warning%s\n" errs
         (if errs = 1 then "" else "s")
         warns
         (if warns = 1 then "" else "s"));
  exit (if Lint.has_errors diags then 1 else 0)
