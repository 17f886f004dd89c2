#!/usr/bin/env bash
# The CLI at pinned seeds, checked against .github/cli-seed.sha256.
#
#   .github/cli-chain.sh WORKDIR
#
# Runs every command from this checkout's sources, writing into WORKDIR,
# which must not exist yet (a registry there would gain users). Then it
# checks every output but the registries, whose created_at is wall-clock
# time, runs the document loaders on the files written, and fails if a
# temporary file (.*.tmp) is left in WORKDIR. It runs the first python on PATH.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$repo/src"
cli="python -m trajmark.cli"
mkdir "$1"
cd "$1"

for domain in data business social; do
  $cli genpool --domain "$domain" --out "pool-$domain.json" --seed 42 --quiet
done
$cli simulate victim --domain data --n 2000 --seed 3 --out victim.jsonl --quiet
# the generator's output in the other built-in domains
for domain in business social; do
  $cli simulate victim --domain "$domain" --n 2000 --seed 3 --out "victim-$domain.jsonl" --quiet
done
$cli simulate benign --domain data --n 2000 --seed 17 --out benign.jsonl --quiet
uid=$($cli register --pool pool-data.json --registry reg.json --seed 5 --quiet)
echo "$uid" > uid.txt
$cli inject --pool pool-data.json --registry reg.json --uid "$uid" --in victim.jsonl \
  --out wm.jsonl --edits edits.jsonl --seed 9 --quiet
$cli attack --strategy all --in wm.jsonl --edits edits.jsonl --pool-candidates data \
  --out attacked.jsonl --metrics attack.csv --seed 11 --quiet
$cli attack --strategy fk-replace --in wm.jsonl --edits edits.jsonl \
  --pool-candidates pool-data.json --out attacked-pool.jsonl --metrics attack-pool.csv \
  --seed 11 --quiet
# the deletion attack away from its default p
$cli attack --strategy random-deletion --p 0.3 --in wm.jsonl --edits edits.jsonl \
  --out attacked-p30.jsonl --metrics attack-p30.csv --seed 11 --quiet
$cli simulate surrogate --domain data --harvest wm.jsonl --n 2000 --seed 13 \
  --out surrogate.jsonl --quiet
$cli verify --pool pool-data.json --suspect surrogate.jsonl --report verdict.json \
  --quiet > verify.txt
# the verifier away from its default thresholds
$cli verify --pool pool-data.json --suspect benign.jsonl --theta-j 0.05 --theta-n 3 \
  --m-min 200 --report verdict-loose.json --quiet > verify-loose.txt
$cli localize --verdict verdict.json --registry reg.json --top 5 --report localized.json > localize.txt
# ranking ties go to the earlier registration, so a many-user
# ranking depends on the seeds alone
cp reg.json reg-many.json
for seed in $(seq 100 107); do
  $cli register --pool pool-data.json --registry reg-many.json --seed "$seed" --quiet > /dev/null
done
$cli localize --verdict verdict.json --registry reg-many.json --top 5 > localize-many.txt

sha256sum -c "$repo/.github/cli-seed.sha256"
# the document loaders, run on the files the chain above wrote
$cli validate --pool pool-data.json --registry reg.json --corpus wm.jsonl --quiet
# refused outputs: each command exits 2, names what it refused on stderr,
# and leaves the directory as it was
listing=$(ls -A)
refused() {
  local named=$1 status=0 err
  shift
  err=$("$@" 2>&1 > /dev/null) || status=$?
  if [ "$status" -ne 2 ] || [[ "$err" != *"$named"* ]] || [ "$(ls -A)" != "$listing" ]; then
    echo "expected exit 2 naming $named and no new file from: $*" >&2
    exit 1
  fi
}
refused missing-dir/m.csv $cli attack --strategy random-deletion --in wm.jsonl \
  --out refused.jsonl --metrics missing-dir/m.csv --quiet
refused --out-dir $cli experiment delta-kld --out-dir "" --quiet
refused '$.out_dir' $cli experiment delta-kld --config <(echo '{"out_dir": ""}') --quiet
# every writer renames its temporary file into place or removes it
if find . -name '.*.tmp' | grep .; then
  echo "temporary files left in $1" >&2
  exit 1
fi
