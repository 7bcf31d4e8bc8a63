namespace emv::segment {

bool
EscapeFilter::mayContain(Addr addr) const
{
    ++_stats.counter("positives");
    return addr != 0;
}

} // namespace emv::segment
