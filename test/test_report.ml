(* Tests for the JSON measurement-plan reports. *)

let fixture =
  lazy
    (let nl =
       Circuit.Generator.generate
         { Circuit.Generator.default with num_gates = 120; seed = 19 }
     in
     let model = Timing.Variation.make_model ~levels:3 () in
     Core.Pipeline.prepare ~netlist:nl ~model ~yield_samples:150 ())

let test_json_rendering () =
  let j =
    Core.Report.Obj
      [
        ("a", Core.Report.Int 1);
        ("b", Core.Report.List [ Core.Report.Bool true; Core.Report.Null ]);
        ("c", Core.Report.String "x\"y\\z\n");
        ("d", Core.Report.Float 2.5);
      ]
  in
  Alcotest.(check string) "compact json"
    "{\"a\":1,\"b\":[true,null],\"c\":\"x\\\"y\\\\z\\n\",\"d\":2.5}"
    (Core.Report.to_string j)

let test_json_nonfinite_floats () =
  Alcotest.(check string) "nan -> null" "null"
    (Core.Report.to_string (Core.Report.Float Float.nan));
  Alcotest.(check string) "inf -> null" "null"
    (Core.Report.to_string (Core.Report.Float Float.infinity));
  Alcotest.(check string) "Floats row at %.12g, non-finite -> null" "[0.1,null,2.5]"
    (Core.Report.to_string (Core.Report.Floats [| 0.1; Float.neg_infinity; 2.5 |]))

(* a five-minute JSON validity checker: balanced structure via a tiny
   recursive parser (no external deps in tests either) *)
let rec skip_value s i =
  let n = String.length s in
  if i >= n then failwith "eof"
  else
    match s.[i] with
    | '{' -> skip_obj s (i + 1)
    | '[' -> skip_arr s (i + 1)
    | '"' -> skip_string s (i + 1)
    | 't' -> i + 4
    | 'f' -> i + 5
    | 'n' -> i + 4
    | '-' | '0' .. '9' ->
      let j = ref i in
      while
        !j < n
        && (match s.[!j] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
      do
        incr j
      done;
      !j
    | c -> failwith (Printf.sprintf "unexpected %c" c)

and skip_string s i =
  let n = String.length s in
  let j = ref i in
  while !j < n && s.[!j] <> '"' do
    if s.[!j] = '\\' then j := !j + 2 else incr j
  done;
  if !j >= n then failwith "unterminated string";
  !j + 1

and skip_obj s i =
  if i < String.length s && s.[i] = '}' then i + 1
  else begin
    let rec members i =
      let i = skip_string s (i + 1) in
      if s.[i] <> ':' then failwith "expected :";
      let i = skip_value s (i + 1) in
      match s.[i] with
      | ',' -> members (i + 1)
      | '}' -> i + 1
      | _ -> failwith "expected , or }"
    in
    members i
  end

and skip_arr s i =
  if i < String.length s && s.[i] = ']' then i + 1
  else begin
    let rec elems i =
      let i = skip_value s i in
      match s.[i] with
      | ',' -> elems (i + 1)
      | ']' -> i + 1
      | _ -> failwith "expected , or ]"
    in
    elems i
  end

let check_valid_json s =
  match skip_value s 0 with
  | stop ->
    if stop <> String.length s then Alcotest.failf "trailing garbage at %d" stop
  | exception Failure msg -> Alcotest.failf "invalid json: %s" msg

let test_selection_report_valid () =
  let setup = Lazy.force fixture in
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  let j =
    Core.Report.selection_report ~pool:setup.Core.Pipeline.pool
      ~t_cons:setup.Core.Pipeline.t_cons ~eps:0.05 sel
  in
  let s = Core.Report.to_string j in
  check_valid_json s;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions kind" true (contains s "path-selection")

let test_hybrid_report_valid () =
  let setup = Lazy.force fixture in
  let h = Core.Pipeline.hybrid_selection setup ~eps:0.08 in
  let j =
    Core.Report.hybrid_report ~pool:setup.Core.Pipeline.pool
      ~t_cons:setup.Core.Pipeline.t_cons ~eps:0.08 h
  in
  check_valid_json (Core.Report.to_string j)

let test_write_file () =
  let path = Filename.temp_file "repro_report" ".json" in
  Core.Report.write_file path (Core.Report.Obj [ ("ok", Core.Report.Bool true) ]);
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file contents" "{\"ok\":true}" line

let unit_tests =
  [
    ("report: json rendering", test_json_rendering);
    ("report: non-finite floats", test_json_nonfinite_floats);
    ("report: selection report is valid json", test_selection_report_valid);
    ("report: hybrid report is valid json", test_hybrid_report_valid);
    ("report: write_file", test_write_file);
  ]

let suites =
  [
    ( "report",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests );
  ]
