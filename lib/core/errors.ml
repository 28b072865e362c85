type t =
  | Parse of { file : string; line : int option; msg : string }
  | Io of { file : string; msg : string }
  | Numerical of { op : string; msg : string }
  | No_critical_paths of { t_cons : float; yield : float }
  | Invalid_input of string
  | Bad_data of string
  | Bad_magic of { file : string }
  | Version_mismatch of { file : string; found : int; expected : int }
  | Corrupt_artifact of { file : string; msg : string }

exception Error of t

let raise_error e = raise (Error e)

let to_string = function
  | Parse { file; line = Some l; msg } -> Printf.sprintf "%s:%d: %s" file l msg
  | Parse { file; line = None; msg } -> Printf.sprintf "%s: %s" file msg
  | Io { file; msg } -> Printf.sprintf "%s: %s" file msg
  | Numerical { op; msg } -> Printf.sprintf "numerical failure in %s: %s" op msg
  | No_critical_paths { t_cons; yield } ->
    Printf.sprintf
      "no statistically-critical path at T=%.1f (yield %.4f); tighten t_cons_scale"
      t_cons yield
  | Invalid_input msg -> msg
  | Bad_data msg -> msg
  | Bad_magic { file } ->
    Printf.sprintf "%s: not a pathsel selection artifact (bad magic)" file
  | Version_mismatch { file; found; expected } ->
    Printf.sprintf "%s: artifact format version %d; this build reads version %d"
      file found expected
  | Corrupt_artifact { file; msg } ->
    Printf.sprintf "%s: corrupt artifact: %s" file msg

(* sysexits.h-style codes so shell pipelines can distinguish failure
   classes: 64 usage, 65 bad input data, 66 missing input, 70 internal
   software (numerical) error. *)
let exit_code = function
  | Invalid_input _ -> 64
  | Parse _ | Bad_data _ | No_critical_paths _ -> 65
  | Bad_magic _ | Version_mismatch _ | Corrupt_artifact _ -> 65
  | Io _ -> 66
  | Numerical _ -> 70

let of_exn ~file (exn : exn) =
  match exn with
  | Error e -> Some e
  | Circuit.Bench_io.Parse_error (l, msg)
  | Circuit.Verilog_io.Parse_error (l, msg)
  | Circuit.Liberty.Parse_error (l, msg) ->
    Some (Parse { file; line = (if l > 0 then Some l else None); msg })
  | Timing.Delay_calc.Missing_cell msg -> Some (Bad_data msg)
  | Linalg.Qr.Rank_deficient msg ->
    Some (Numerical { op = "Qr.solve_lstsq"; msg })
  | Sys_error msg -> Some (Io { file; msg })
  | Linalg.Svd.No_convergence ->
    Some (Numerical { op = "Svd.factor"; msg = "implicit-shift QR did not converge" })
  | Linalg.Cholesky.Not_positive_definite ->
    Some (Numerical { op = "Cholesky.factor"; msg = "matrix not positive definite" })
  | Failure msg -> Some (Bad_data msg)
  | Invalid_argument msg -> Some (Invalid_input msg)
  | _ -> None

let protect ~file f =
  match f () with
  | v -> Ok v
  | exception exn ->
    (match of_exn ~file exn with Some e -> Result.Error e | None -> raise exn)

let catch f = protect ~file:"<input>" f

let get_ok = function Ok v -> v | Result.Error e -> raise_error e

(* ------------------------------------------------------------------ *)
(* The one file reader, and the typed ingestion entry points on it *)

(* [input_all] presizes its buffer from the channel length and hands
   that buffer back without a copy when the file holds what it said;
   it also reads pipes and /dev/stdin, which have no length. *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg ->
    (* the runtime's message is "<path>: <reason>"; [to_string] puts
       the path in front already *)
    let prefix = path ^ ": " in
    let msg =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
      else msg
    in
    Result.Error (Io { file = path; msg })

(* the format parsers raise [Parse_error (line, msg)] with a bare
   message; [protect] tags it with the path, once *)
let ingest path f =
  Result.bind (read_file path) (fun text -> protect ~file:path (fun () -> f text))

let basename path = Filename.remove_extension (Filename.basename path)

let parse_bench_file ?(lenient = false) path =
  ingest path (fun text ->
      if lenient then Circuit.Bench_io.parse_lenient ~name:(basename path) text
      else (Circuit.Bench_io.parse ~name:(basename path) text, []))

let parse_verilog_file path =
  ingest path (Circuit.Verilog_io.parse ~name:(basename path))

let parse_liberty_file path =
  ingest path (fun text ->
      Circuit.Liberty.Library.of_group (Circuit.Liberty.parse text))
