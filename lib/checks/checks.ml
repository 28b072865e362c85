exception Contract_violation of string

let env_enabled () =
  match Sys.getenv_opt "PATHSEL_CHECKS" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

let enabled = ref (env_enabled ())

let on () = !enabled

let set_enabled b = enabled := b

let failf fmt = Printf.ksprintf (fun s -> raise (Contract_violation s)) fmt

let require cond msg = if not cond then raise (Contract_violation msg)

let find_nan a =
  let n = Array.length a in
  let rec go i = if i >= n then None else if Float.is_nan a.(i) then Some i else go (i + 1) in
  go 0

let nan_introduced ~what ~inputs out =
  match find_nan out with
  | None -> ()
  | Some i ->
    if List.for_all (fun a -> find_nan a = None) inputs then
      failf "%s: NaN introduced at flat index %d (inputs were NaN-free)" what i
